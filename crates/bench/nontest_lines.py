"""Count the workspace's non-test lines of Rust, the size figure simplicity changes report.

    python3 crates/bench/nontest_lines.py              # prints the total
    python3 crates/bench/nontest_lines.py --per-file   # per-file counts, then the total

The rule: every `crates/*/src/**/*.rs` file outside the frozen benchmark
package (`crates/bench/src/bin/benchmark/`) counts the lines before its
first column-0 `#[cfg(test)]` (the whole file when it has none), and the
all-test `crates/edms/src/brp/ingest_tests.rs` counts whole. Run it from
any directory; it counts the checkout it sits in.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
FROZEN = ROOT / "crates" / "bench" / "src" / "bin" / "benchmark"
WHOLE = {ROOT / "crates" / "edms" / "src" / "brp" / "ingest_tests.rs"}


def nontest_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if path in WHOLE:
        return len(lines)
    for n, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            return n
    return len(lines)


def main():
    files = sorted(
        p for p in ROOT.glob("crates/*/src/**/*.rs") if FROZEN not in p.parents
    )
    counts = [(p.relative_to(ROOT).as_posix(), nontest_lines(p)) for p in files]
    if "--per-file" in sys.argv[1:]:
        for name, count in counts:
            print(f"{count:6} {name}")
    print(sum(count for _, count in counts))


if __name__ == "__main__":
    main()

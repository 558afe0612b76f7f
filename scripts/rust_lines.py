#!/usr/bin/env python3
"""Count non-blank, non-test Rust lines at two git revisions.

Counted: `*.rs` files under `crates/`, `src/`, `examples/` and `vendor/`,
except files in a `tests/` directory, and in each file only the lines
before its first `#[cfg(test)]`.

Usage: python3 scripts/rust_lines.py BASE [HEAD]   (HEAD defaults to HEAD)
Prints the count at each revision and the net change.
"""

import subprocess
import sys

ROOTS = ("crates/", "src/", "examples/", "vendor/")


def git(*args):
    return subprocess.run(
        ("git",) + args, check=True, capture_output=True, text=True
    ).stdout


def counted(path):
    return (
        path.endswith(".rs")
        and path.startswith(ROOTS)
        and "tests" not in path.split("/")[:-1]
    )


def lines(rev):
    total = 0
    for path in git("ls-tree", "-r", "--name-only", rev).splitlines():
        if not counted(path):
            continue
        for line in git("show", f"{rev}:{path}").splitlines():
            if line.strip() == "#[cfg(test)]":
                break
            total += bool(line.strip())
    return total


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    base, head = sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else "HEAD"
    b, h = lines(base), lines(head)
    print(f"non-test Rust lines: base {base} {b}, head {head} {h}, net {h - b:+d}")


if __name__ == "__main__":
    main()

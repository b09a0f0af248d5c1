#!/usr/bin/env python3
"""Count the repository's code lines.

A code line is a non-blank line that does not start with `//` (so doc
comments do not count), in the Rust files under `crates/*/src`,
`crates/*/benches`, `src` and `examples`. Test code does not count:
each `#[cfg(test)]` item is skipped by its braces (a `mod tests { .. }`
block, a test-only field, match arm, statement or method), and a file
declared by a `#[cfg(test)] mod name;` line is skipped whole.

Usage: code_lines.py [--files] [ROOT]

Prints the total; with `--files`, first one `count path` line per file.
ROOT defaults to the repository this script lives in.
"""

import re
import sys
from pathlib import Path

STRING = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')
TEST_MOD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def count(path, test_mods):
    """Code lines of one file; adds the files its test-only `mod name;`
    lines declare to `test_mods`."""
    lines = 0
    skipping = False  # inside a #[cfg(test)] item
    depth, opened = 0, False
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not skipping:
            if line == "#[cfg(test)]":
                skipping, depth, opened = True, 0, False
            else:
                lines += 1
            continue
        m = TEST_MOD.match(line)
        if m and depth == 0:
            test_mods.add(module_file(path, m.group(1)))
        code = STRING.sub('""', line).split("//")[0]
        for ch in code:
            if ch == "{":
                depth, opened = depth + 1, True
            elif ch == "}":
                depth -= 1
        ends_item = opened or code.rstrip().endswith((";", ","))
        if depth == 0 and ends_item and not code.startswith("#["):
            skipping = False
    return lines


def module_file(parent, name):
    """The file `mod name;` in `parent` declares."""
    base = parent.parent if parent.name in ("mod.rs", "lib.rs", "main.rs") else parent.with_suffix("")
    nested = base / name / "mod.rs"
    return nested if nested.exists() else base / f"{name}.rs"


def main():
    args = sys.argv[1:]
    files_too = "--files" in args
    args = [a for a in args if a != "--files"]
    root = Path(args[0]) if args else Path(__file__).resolve().parents[2]
    dirs = list(root.glob("crates/*/src")) + list(root.glob("crates/*/benches"))
    dirs += [root / "src", root / "examples"]
    files = sorted(f for d in dirs if d.is_dir() for f in d.rglob("*.rs"))
    test_mods = set()
    counts = {f: count(f, test_mods) for f in files}
    total = 0
    for f, n in counts.items():
        if f in test_mods:
            continue
        total += n
        if files_too:
            print(f"{n:6} {f.relative_to(root)}")
    print(total)


if __name__ == "__main__":
    main()

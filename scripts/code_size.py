#!/usr/bin/env python3
"""Prints the two size numbers ROADMAP tracks ("net line count is a
tracked number"), by one fixed rule so PRs can quote before -> after.

Non-test code of a file = everything before its first `#[cfg(test)]`
at column 0 (the test module);
files named `tests.rs` and anything under a `bin/` directory are skipped.

  public items  `pub (fn|struct|enum|trait|const|type|mod) ` lines in the
                non-test code of crates/xray/src
  code lines    non-blank, non-`//` lines in the non-test code of
                crates/*/src and src

Run from the repository root.
"""
import glob
import os
import re

PUB_ITEM = re.compile(r"^\s*pub (fn|struct|enum|trait|const|type|mod) ")


def non_test_lines(root):
    for path in sorted(glob.glob(os.path.join(root, "**", "*.rs"), recursive=True)):
        parts = path.split(os.sep)
        if "bin" in parts or parts[-1] == "tests.rs":
            continue
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("#[cfg(test)]"):
                    break
                yield line


def main():
    public_items = sum(1 for l in non_test_lines("crates/xray/src") if PUB_ITEM.match(l))
    roots = sorted(glob.glob("crates/*/src")) + ["src"]
    code_lines = sum(
        1
        for root in roots
        for l in non_test_lines(root)
        if l.strip() and not l.lstrip().startswith("//")
    )
    print(f"capi-xray public items: {public_items}")
    print(f"workspace non-test code lines: {code_lines}")


if __name__ == "__main__":
    main()

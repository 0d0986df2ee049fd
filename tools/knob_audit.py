#!/usr/bin/env python3
"""Knob audit: every configuration field must be set by some caller.

Lists every member with a default initializer in the bodies of the
`struct ...Config {` and `struct ...Params {` definitions under `src/`,
then searches the code trees (src, tests, bench, tools, examples,
perfbench) for an assignment to each one. A member counts as set when

    [.>]name\\s*(=|+=|-=|*=|/=)

matches anywhere outside its own declaration, after `//` and `/* */`
comments are stripped. That covers `cfg.name = v`, `p->name += v` and
designated initializers `{.name = v}`. A field no code sets is a named
constant in disguise: fold it into a `constexpr` at its point of use.

The match is by member name only, so two structs that share a field name
(say `max_rate_bps`) vouch for each other: name collisions make the
audit permissive, never strict.

Usage: knob_audit.py [REPO_ROOT]   (default: the parent of this script's
directory). Prints the inventory size and every unset member; exits 1
if any member is never set.
"""

import pathlib
import re
import sys

SEARCH_DIRS = ("src", "tests", "bench", "tools", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cpp", ".py"}
STRUCT_RE = re.compile(r"\bstruct\s+(\w*(?:Config|Params))\s*\{")
SCOPE_RE = re.compile(r"\b(?:class|struct)\s+(\w+)[^;{()]*\{")
MEMBER_RE = re.compile(r"^[\w:<>,\s\*&]+?[\s\*&>](\w+)\s*(?:=(?!=)|\{)")


def strip_comments(text):
    """Blanks out C++ comments, keeping line breaks so offsets map to lines."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r"//[^\n]*|/\*.*?\*/", blank, text, flags=re.S)


def block_end(text, i):
    """Offset just past the brace that closes the one opened before `i`."""
    depth = 1
    while depth and i < len(text):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return i


def qualified_name(text, m):
    """`Outer::Config` for a struct nested in a class, else its own name."""
    outer = [s.group(1) for s in SCOPE_RE.finditer(text, 0, m.start())
             if block_end(text, s.end()) > m.start()]
    return "::".join(outer[-1:] + [m.group(1)])


def struct_members(text):
    """Yields (struct, member, line) for default-initialized members."""
    for m in STRUCT_RE.finditer(text):
        start = m.end()
        i = block_end(text, start)
        body, stmt, stmt_at, level = text[start:i - 1], "", start, 0
        for j, ch in enumerate(body):
            if not stmt.strip():
                stmt_at = start + j
            level += {"{": 1, "}": -1}.get(ch, 0)
            stmt += ch
            if ch == ";" and level == 0:
                decl = stmt.strip()
                hit = MEMBER_RE.match(decl)
                if hit and not re.match(r"(static|using|friend|enum|struct)\b",
                                        decl):
                    line = text.count("\n", 0, stmt_at) + 1
                    yield qualified_name(text, m), hit.group(1), line
                stmt = ""


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent)
    files = {}
    for d in SEARCH_DIRS:
        for p in sorted((root / d).rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                text = p.read_text(errors="replace")
                if p.suffix != ".py":
                    text = strip_comments(text)
                files[p] = text

    inventory = []
    for p, text in files.items():
        if p.suffix != ".py" and (root / "src") in p.parents:
            for struct, member, line in struct_members(text):
                inventory.append((struct, member, p, line))

    def is_set(member, decl_path, decl_line):
        assign = re.compile(r"[.>]" + re.escape(member) +
                            r"\s*(?:=(?!=)|\+=|-=|\*=|/=)")
        return any(p != decl_path or
                   text.count("\n", 0, hit.start()) + 1 != decl_line
                   for p, text in files.items()
                   for hit in assign.finditer(text))

    unset = [entry for entry in inventory if not is_set(*entry[1:])]

    print(f"knob_audit: {len(inventory)} default-initialized config members")
    for struct, member, p, line in unset:
        print(f"  never set: {struct}::{member}  "
              f"({p.relative_to(root)}:{line})")
    if unset:
        print(f"knob_audit: {len(unset)} member(s) no code sets; fold them "
              f"into named constants")
        return 1
    print("knob_audit: every member is set by some caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())

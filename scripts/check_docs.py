#!/usr/bin/env python3
"""Documentation lint for the docs CI job.

Two checks, both intentionally grep-grade (no real C++ or markdown
parser, so the failure modes are predictable):

1. Intra-repo markdown links: every relative `[text](path)` target in a
   tracked *.md file must exist (anchors are stripped; absolute URLs and
   mailto links are ignored).

2. Header doc comments: in the public headers under src/atpg, src/core,
   src/diag, src/fault, src/obs, src/robust, src/sim and src/soc, every public
   declaration — function declarations and type definitions at namespace
   or public-class scope — must be immediately preceded by a comment
   line. This keeps the `///` contract lines the doc passes added from
   silently rotting as the headers evolve.

Exit status is non-zero when either check finds a problem.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_HEADER_DIRS = ["src/atpg", "src/core", "src/diag", "src/fault",
                   "src/obs", "src/robust", "src/sim", "src/soc"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_markdown_links():
    problems = []
    md_files = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in (".git", "build", "_deps")]
        md_files += [os.path.join(root, f) for f in files if f.endswith(".md")]
    for md in sorted(md_files):
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for target in LINK_RE.findall(line):
                    if re.match(r"^[a-z]+:", target) or target.startswith("#"):
                        continue  # URL scheme or in-page anchor
                    path = target.split("#", 1)[0]
                    if not path:
                        continue
                    resolved = os.path.normpath(os.path.join(base, path))
                    if not os.path.exists(resolved):
                        problems.append(
                            f"{os.path.relpath(md, REPO)}:{lineno}: "
                            f"broken link -> {target}"
                        )
    return problems


ACCESS_RE = re.compile(r"^\s*(public|private|protected)\s*:")
TYPE_DECL_RE = re.compile(r"^\s*(class|struct|enum(\s+class)?)\s+\w+")
# A function-ish declaration line: optional attributes/specifiers, then
# something followed by an opening parenthesis.
FUNC_DECL_RE = re.compile(
    r"^\s*(\[\[nodiscard\]\]\s*)?"
    r"((virtual|static|explicit|constexpr|inline|friend|template)\b.*|"
    r"[~A-Za-z_][\w:<>,&*\s]*[\s~&*][A-Za-z_]\w*\s*\(|"
    r"[A-Za-z_]\w*\s*\()"
)
STATEMENT_PREFIXES = (
    "return", "if", "for", "while", "switch", "case", "assert", "using",
    "break", "continue", "else", "do", "#", "}", "{",
)


def is_comment(stripped):
    return stripped.startswith("//") or stripped.startswith("*")


def check_header_docs(path):
    """Returns problems for one header (see module docstring, check 2)."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()

    problems = []
    # Context stack entries: ("namespace" | "class" | "other", public?).
    stack = []
    pending = None  # context a just-seen declaration will open with "{"
    fresh = True  # at a statement start (not a continuation line)
    prev_was_comment = False

    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if is_comment(stripped):
            prev_was_comment = True
            continue

        in_public = (not stack) or (
            stack[-1][0] == "namespace"
            or (stack[-1][0] == "class" and stack[-1][1])
        )
        documentable = not any(e[0] == "other" for e in stack)

        if ACCESS_RE.match(stripped):
            if stack and stack[-1][0] == "class":
                stack[-1] = ("class", stripped.startswith("public"))
            prev_was_comment = False
            fresh = True
            continue

        is_type = TYPE_DECL_RE.match(stripped) and not stripped.endswith(";")
        is_func = (
            FUNC_DECL_RE.match(stripped)
            and "(" in stripped
            and not stripped.split("(")[0].strip().split(" ")[0].rstrip("(")
            in STATEMENT_PREFIXES
            and not stripped.startswith(STATEMENT_PREFIXES)
            and "= delete" not in stripped
            and "= default" not in stripped
        )
        if (
            fresh
            and in_public
            and documentable
            and (is_type or is_func)
            and not prev_was_comment
        ):
            problems.append(
                f"{os.path.relpath(path, REPO)}:{lineno}: undocumented "
                f"public declaration: {stripped[:60]}"
            )

        # Maintain the context stack from this line's braces.
        for ch in stripped:
            if ch == "{":
                if pending is not None:
                    stack.append(pending)
                    pending = None
                else:
                    stack.append(("other", False))
            elif ch == "}":
                if stack:
                    stack.pop()
        if pending is None and is_type:
            kind = stripped.split()[0]
            if kind == "namespace":
                pass
            elif kind == "class":
                if "{" not in stripped:
                    pending = ("class", False)
            elif kind == "struct":
                if "{" not in stripped:
                    pending = ("class", True)
            elif kind == "enum":
                if "{" not in stripped:
                    pending = ("other", False)
        if stripped.startswith("namespace") and "{" not in stripped:
            pending = ("namespace", True)
        if "{" in stripped and TYPE_DECL_RE.match(stripped):
            # Type opened its brace on the same line: fix the context we
            # just pushed as "other" above.
            kind = stripped.split()[0]
            if stack:
                if kind == "struct":
                    stack[-1] = ("class", True)
                elif kind == "class":
                    stack[-1] = ("class", False)
                elif kind == "enum":
                    stack[-1] = ("other", False)
        if stripped.startswith("namespace") and "{" in stripped and stack:
            stack[-1] = ("namespace", True)

        fresh = stripped.endswith((";", "{", "}", ":"))
        prev_was_comment = False
    return problems


def main():
    problems = check_markdown_links()
    for d in DOC_HEADER_DIRS:
        full = os.path.join(REPO, d)
        for name in sorted(os.listdir(full)):
            if name.endswith(".hpp"):
                problems += check_header_docs(os.path.join(full, name))
    for p in problems:
        print(p)
    if problems:
        print(f"\ncheck_docs: {len(problems)} problem(s)")
        return 1
    print("check_docs: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

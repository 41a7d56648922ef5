#!/usr/bin/env python
"""Anti-rot checker for the documentation (README + docs/*.md).

Run from anywhere::

    python tools/check_docs.py

Checks, per markdown file:

1. **Doctests** — every ``>>>`` example is executed (examples in one file
   share a namespace, in order, like a REPL session) and its output must
   match.  This is what keeps the snippets in ``docs/api.md`` and
   ``docs/architecture.md`` honest.
2. **Python fences** — fenced ```` ```python ```` blocks without ``>>>``
   prompts must at least *compile* (catches renamed symbols breaking
   syntax, half-edited snippets, bad indentation).
3. **Relative links** — every ``[text](path)`` pointing into the repo must
   resolve to an existing file.
4. **CLI surface** — every sub-command of ``repro.cli`` must be mentioned
   in the README (so new commands cannot ship undocumented), and the
   README must link both docs pages.
5. **Environment knobs**, both ways — every ``RKNNT_*`` variable
   referenced anywhere under ``src/`` must appear (backtick-quoted) in the
   ``docs/api.md`` environment table, and every ``| `RKNNT_*` |`` row of
   that table must name a variable something under ``src/`` reads.  A new
   knob cannot ship undocumented, and a renamed or deleted one cannot
   leave its stale row behind.  ``src/`` may read at most
   ``MAX_ENV_KNOBS`` of them, so a new knob has to retire another first.

Exit status 0 when everything passes; 1 otherwise, with one line per
failure.  The tier-1 suite runs this via ``tests/test_docs.py`` and CI has
a dedicated docs job for it.
"""

from __future__ import annotations

import doctest
import glob
import os
import re
import sys
from typing import List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_KNOB_RE = re.compile(r"\bRKNNT_[A-Z0-9_]+\b")
ENV_ROW_RE = re.compile(r"^\|\s*`(RKNNT_[A-Z0-9_]+)`\s*\|", re.MULTILINE)

#: Ceiling on the ``RKNNT_*`` knobs ``src/`` may read.  Lower it when a knob
#: goes; never raise it.
MAX_ENV_KNOBS = 9


def doc_files() -> List[str]:
    files = [os.path.join(REPO_ROOT, "README.md")]
    files.extend(sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))))
    return [path for path in files if os.path.exists(path)]


def extract_fences(text: str) -> List[Tuple[str, int, str]]:
    """``(language, first_line_number, body)`` for every fenced block."""
    fences = []
    language = None
    body: List[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), start=1):
        match = FENCE_RE.match(line.strip())
        if match and language is None:
            language = match.group(1).lower()
            body = []
            start = number + 1
        elif line.strip() == "```" and language is not None:
            fences.append((language, start, "\n".join(body)))
            language = None
        elif language is not None:
            body.append(line)
    return fences


def check_doctests(path: str, failures: List[str]) -> int:
    """Run every ``>>>`` example of the file as one REPL-like session."""
    results = doctest.testfile(
        path,
        module_relative=False,
        verbose=False,
        report=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    if results.failed:
        failures.append(
            f"{os.path.relpath(path, REPO_ROOT)}: "
            f"{results.failed}/{results.attempted} doctest example(s) failed "
            f"(re-run with `python -m doctest {os.path.relpath(path, REPO_ROOT)} -v`)"
        )
    return results.attempted


def check_python_fences(path: str, text: str, failures: List[str]) -> int:
    checked = 0
    for language, line, body in extract_fences(text):
        if language != "python" or ">>>" in body:
            continue  # doctest blocks are executed by check_doctests
        try:
            compile(body, f"{path}:{line}", "exec")
            checked += 1
        except SyntaxError as error:
            failures.append(
                f"{os.path.relpath(path, REPO_ROOT)}:{line + (error.lineno or 1) - 1}: "
                f"python fence does not compile: {error.msg}"
            )
    return checked


def check_links(path: str, text: str, failures: List[str]) -> int:
    checked = 0
    base = os.path.dirname(path)
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        checked += 1
        resolved = os.path.normpath(os.path.join(base, relative))
        if not os.path.exists(resolved):
            failures.append(
                f"{os.path.relpath(path, REPO_ROOT)}: broken link -> {target}"
            )
    return checked


def check_cli_surface(failures: List[str]) -> None:
    readme = os.path.join(REPO_ROOT, "README.md")
    with open(readme, "r", encoding="utf-8") as handle:
        text = handle.read()
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse offers no API
        if hasattr(action, "choices") and action.choices
    )
    for command in subparsers.choices:
        if f"`{command}" not in text and f"cli {command}" not in text:
            failures.append(
                f"README.md: CLI sub-command `{command}` is undocumented"
            )
    for required in ("docs/architecture.md", "docs/api.md"):
        if required not in text:
            failures.append(f"README.md: missing link to {required}")


def check_env_knobs(
    failures: List[str], api_path: str = "", src_dir: str = SRC_DIR
) -> int:
    """The ``docs/api.md`` environment table and ``src/`` name the same knobs.

    The table is the single inventory of runtime knobs.  A knob read by
    the code but absent there is invisible to operators; a table row for a
    knob nothing reads documents a lever that does nothing.  Documented
    means backtick-quoted anywhere in the page, the way every table row
    renders it; a row is a line starting ``| `RKNNT_...` |``.
    """
    api_path = api_path or os.path.join(REPO_ROOT, "docs", "api.md")
    with open(api_path, "r", encoding="utf-8") as handle:
        api_text = handle.read()
    knobs = set()
    pattern = os.path.join(src_dir, "**", "*.py")
    for path in glob.glob(pattern, recursive=True):
        with open(path, "r", encoding="utf-8") as handle:
            knobs.update(ENV_KNOB_RE.findall(handle.read()))
    for knob in sorted(knobs):
        if f"`{knob}`" not in api_text:
            failures.append(
                f"docs/api.md: environment knob `{knob}` (referenced in "
                f"src/) is missing from the environment table"
            )
    for knob in sorted(set(ENV_ROW_RE.findall(api_text)) - knobs):
        failures.append(
            f"docs/api.md: environment table row `{knob}` names a knob "
            f"nothing under src/ reads"
        )
    if len(knobs) > MAX_ENV_KNOBS:
        failures.append(
            f"src/: {len(knobs)} environment knobs exceed the ceiling of "
            f"{MAX_ENV_KNOBS}; retire one before adding another"
        )
    return len(knobs)


def main() -> int:
    sys.path.insert(0, SRC_DIR)
    failures: List[str] = []
    examples = fences = links = 0
    for path in doc_files():
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        examples += check_doctests(path, failures)
        fences += check_python_fences(path, text, failures)
        links += check_links(path, text, failures)
    check_cli_surface(failures)
    knobs = check_env_knobs(failures)

    name = os.path.basename(sys.argv[0]) or "check_docs.py"
    if failures:
        for failure in failures:
            print(f"{name}: {failure}", file=sys.stderr)
        print(
            f"{name}: FAILED ({len(failures)} problem(s); "
            f"{examples} doctest examples, {fences} compiled fences, "
            f"{links} links, {knobs} env knobs checked)",
            file=sys.stderr,
        )
        return 1
    print(
        f"{name}: OK ({len(doc_files())} files, {examples} doctest examples, "
        f"{fences} compiled fences, {links} links, {knobs} env knobs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

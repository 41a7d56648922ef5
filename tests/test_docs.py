"""The documentation must stay executable (same checks as the CI docs job).

``tools/check_docs.py`` runs every ``>>>`` doctest example in ``README.md``
and ``docs/*.md``, compiles the plain python fences, resolves relative
links, asserts the CLI surface is documented and that the ``docs/api.md``
environment table and ``src/`` name the same ``RKNNT_*`` knobs.  Running it from the
tier-1 suite means documentation rot fails locally, not just in CI.
"""

import importlib.util
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_docs.py")


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_pages_exist_and_are_linked():
    readme = open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8").read()
    for page in ("docs/architecture.md", "docs/api.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, page)), page
        assert page in readme, f"README does not link {page}"


def test_check_docs_passes_in_process():
    checker = load_checker()
    assert checker.main() == 0


def test_check_docs_passes_as_script():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if part
    )
    completed = subprocess.run(
        [sys.executable, CHECKER],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "OK" in completed.stdout


def test_check_env_knobs_flags_a_stale_table_row(tmp_path):
    checker = load_checker()
    src = tmp_path / "src"
    src.mkdir()
    (src / "knobs.py").write_text('LIVE_ENV = "RKNNT_LIVE"\n', encoding="utf-8")
    api = tmp_path / "api.md"
    api.write_text(
        "| Variable | Default | Effect |\n"
        "|---|---|---|\n"
        "| `RKNNT_LIVE` | unset | Read by the code. |\n"
        "| `RKNNT_GONE` | unset | Nothing reads this any more. |\n",
        encoding="utf-8",
    )
    failures = []
    assert checker.check_env_knobs(failures, str(api), str(src)) == 1
    assert len(failures) == 1
    assert "`RKNNT_GONE`" in failures[0] and "nothing under src/" in failures[0]


def test_check_env_knobs_enforces_the_knob_ceiling(tmp_path):
    checker = load_checker()
    assert checker.MAX_ENV_KNOBS == 9
    src = tmp_path / "src"
    src.mkdir()
    api = tmp_path / "api.md"
    names = [f"RKNNT_KNOB_{index}" for index in range(10)]

    def check(knobs):
        (src / "knobs.py").write_text(
            "".join(f'ENV_{i} = "{name}"\n' for i, name in enumerate(knobs)),
            encoding="utf-8",
        )
        api.write_text(
            "".join(f"| `{name}` | unset | Read by the code. |\n" for name in knobs),
            encoding="utf-8",
        )
        failures = []
        return checker.check_env_knobs(failures, str(api), str(src)), failures

    assert check(names[:9]) == (9, [])
    count, failures = check(names)
    assert count == 10
    assert len(failures) == 1 and "ceiling of 9" in failures[0]

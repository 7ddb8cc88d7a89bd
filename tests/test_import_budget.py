"""The import budget: scipy, numpy and networkx load only where called.

A warm ``repro report`` only replays stored artifacts, so it must not pay
for numpy's import (the §7 Monte-Carlo draws use it), nor for scipy or
networkx, which are optional.  Two guards:

* a static scan: no module under ``src/repro`` imports a heavy library
  at import time (module level, including ``try:``/``if``/``with``
  blocks and class bodies); ``if TYPE_CHECKING:`` blocks are allowed;
* a run: a warm ``repro report`` on a filled store leaves none of them
  in ``sys.modules`` and writes the same bytes as the run that filled it.

And networkx is really optional: with it unimportable, ``repro report``
still works, and only the dependency-graph API fails, naming it.  scipy
is a test-only oracle: no function outside ``analysis/compare.py``
imports it, and with it unimportable a cold ``repro report`` writes the
same bytes, while only ``compare_studies`` fails, naming it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy", "numpy", "networkx")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def eager_heavy_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` of every heavy import run at import time."""
    found: list[tuple[int, str]] = []

    def visit(nodes) -> None:
        for node in nodes:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                names = []
            found.extend(
                (node.lineno, name) for name in names
                if name.partition(".")[0] in HEAVY
            )
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return found


def scipy_imports(source: str) -> list[int]:
    """Lines of every scipy import, at any depth."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(
            alias.name.partition(".")[0] == "scipy" for alias in node.names
        )) or (
            isinstance(node, ast.ImportFrom) and not node.level
            and (node.module or "").partition(".")[0] == "scipy"
        )
    ]


#: The one place the program may call scipy (``compare_studies``).
SCIPY_USERS = {Path("repro/analysis/compare.py")}


class TestStaticScan:
    def test_only_compare_imports_scipy(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line}"
            for path in sorted(SRC.rglob("*.py"))
            if path.relative_to(SRC) not in SCIPY_USERS
            for line in scipy_imports(path.read_text())
        ]
        assert not offenders, offenders

    def test_scipy_scan_sees_function_level_imports(self):
        source = textwrap.dedent("""
            import scipy.stats
            def f():
                from scipy.special import gammaln
            class C:
                def g(self):
                    import numpy, scipy
            from .scipy import local
        """)
        assert scipy_imports(source) == [2, 4, 7]

    def test_no_module_imports_a_heavy_library_at_import_time(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for path in sorted(SRC.rglob("*.py"))
            for line, name in eager_heavy_imports(path.read_text())
        ]
        assert not offenders, offenders

    def test_scan_sees_nested_module_level_imports(self):
        source = textwrap.dedent("""
            import os
            try:
                import numpy as np
            except ImportError:
                from scipy import stats
            if os.name:
                with open(os.devnull):
                    import networkx.algorithms
            class Holder:
                from scipy.stats import chi2
        """)
        assert [name for _, name in eager_heavy_imports(source)] == [
            "numpy", "scipy", "networkx.algorithms", "scipy.stats",
        ]

    def test_scan_allows_function_level_and_type_checking_imports(self):
        source = textwrap.dedent("""
            from typing import TYPE_CHECKING
            import numbers
            if TYPE_CHECKING:
                import networkx as nx
            else:
                import numpy
            def f():
                import scipy
            class C:
                def g(self):
                    from numpy import array
        """)
        assert eager_heavy_imports(source) == [(7, "numpy")]


def _run(args: list[str], tmp_path: Path, *, pythonpath: list[Path] = ()):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        *map(str, pythonpath), str(SRC), env.get("PYTHONPATH")
    ]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )


WARM_DRIVER = textwrap.dedent("""
    import json, sys
    from repro.cli import main
    code = main(sys.argv[1:])
    heavy = sorted(
        name for name in sys.modules
        if name.partition(".")[0] in {"scipy", "numpy", "networkx"}
    )
    print(json.dumps({"code": code, "heavy": heavy}))
""")


class TestWarmReport:
    def test_warm_report_loads_no_heavy_library(self, tmp_path):
        store = tmp_path / "store"
        args = ["report", "--scale", "4", "--store-dir", str(store)]
        cold = _run(
            ["-m", "repro", *args, "--out", str(tmp_path / "cold.md")],
            tmp_path,
        )
        assert cold.returncode == 0, cold.stderr
        warm = _run(
            ["-c", WARM_DRIVER, *args, "--out", str(tmp_path / "warm.md")],
            tmp_path,
        )
        assert warm.returncode == 0, warm.stderr
        outcome = json.loads(warm.stdout.splitlines()[-1])
        assert outcome == {"code": 0, "heavy": []}
        assert (tmp_path / "warm.md").read_bytes() == (
            tmp_path / "cold.md"
        ).read_bytes()


def blocker(library: str) -> str:
    """A ``sitecustomize`` that makes ``library`` unimportable."""
    return textwrap.dedent(f"""
        import sys

        class Block:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == {library!r}:
                    raise ModuleNotFoundError(
                        f"No module named {{name!r}}", name=name
                    )
                return None

        sys.meta_path.insert(0, Block())
    """)


def blocked_site(tmp_path: Path, library: str) -> list[Path]:
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(blocker(library))
    return [site]


GRAPH_PROBE = textwrap.dedent("""
    from repro.querydep import dependency_graph
    try:
        dependency_graph([])
    except ModuleNotFoundError as exc:
        print(exc.name)
""")


class TestNetworkxIsOptional:
    @pytest.fixture
    def blocked(self, tmp_path) -> list[Path]:
        return blocked_site(tmp_path, "networkx")

    def test_the_block_works(self, tmp_path, blocked):
        probe = _run(["-c", "import networkx"], tmp_path, pythonpath=blocked)
        assert probe.returncode != 0
        assert "networkx" in probe.stderr

    def test_report_runs_without_networkx(self, tmp_path, blocked):
        out = tmp_path / "report.md"
        proc = _run(
            ["-m", "repro", "report", "--scale", "4", "--out", str(out)],
            tmp_path, pythonpath=blocked,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("#")

    def test_dependency_graph_names_the_missing_library(
        self, tmp_path, blocked
    ):
        proc = _run(["-c", GRAPH_PROBE], tmp_path, pythonpath=blocked)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "networkx"


COMPARE_PROBE = textwrap.dedent("""
    from repro.analysis import StudyResult, compare_studies
    empty = StudyResult(projects=[], skipped=[])
    try:
        compare_studies(empty, empty)
    except ModuleNotFoundError as exc:
        print(exc.name)
""")


class TestScipyIsTestOnly:
    @pytest.fixture
    def blocked(self, tmp_path) -> list[Path]:
        return blocked_site(tmp_path, "scipy")

    def test_the_block_works(self, tmp_path, blocked):
        probe = _run(["-c", "import scipy.stats"], tmp_path,
                     pythonpath=blocked)
        assert probe.returncode != 0
        assert "scipy" in probe.stderr

    def test_cold_report_without_scipy_writes_the_same_bytes(
        self, tmp_path, blocked
    ):
        args = ["-m", "repro", "report", "--scale", "4", "--out"]
        plain = _run([*args, str(tmp_path / "plain.md")], tmp_path)
        assert plain.returncode == 0, plain.stderr
        without = _run(
            [*args, str(tmp_path / "without.md")], tmp_path,
            pythonpath=blocked,
        )
        assert without.returncode == 0, without.stderr
        assert (tmp_path / "without.md").read_bytes() == (
            tmp_path / "plain.md"
        ).read_bytes()

    def test_compare_studies_names_the_missing_library(
        self, tmp_path, blocked
    ):
        proc = _run(["-c", COMPARE_PROBE], tmp_path, pythonpath=blocked)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "scipy"

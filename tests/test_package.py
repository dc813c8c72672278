import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pixelret
from pixelret.layout import generate_test_pattern, parse_layout

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_every_exported_name_resolves():
    missing = [name for name in pixelret.__all__ if not hasattr(pixelret, name)]
    assert missing == []
    assert len(set(pixelret.__all__)) == len(pixelret.__all__)


def test_benchmark_imports_resolve():
    # The benchmark under perfbench/ imports these names from the library,
    # some inside functions; a deletion that would break it fails here.
    wanted = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level \
                    and node.module.split(".")[0] == "pixelret":
                wanted.update((node.module, alias.name) for alias in node.names)
    assert wanted
    missing = [
        f"{module}.{name}"
        for module, name in sorted(wanted)
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this pixelret."""
    path = [str(Path(pixelret.__file__).resolve().parent.parent)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_only_grid_reads_files():
    # grid.read_bytes and grid.read_text turn every read failure into a
    # FormatError naming the file; a read elsewhere would bypass them.
    reads = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src" / "pixelret").glob("*.py"))
        if path.name != "grid.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ".read_text(" in line or ".read_bytes(" in line
    ]
    assert reads == []


def _hand_written_number_checks(path: Path) -> list[str]:
    """Comparisons in path that test `type(x) is not int` or compare with
    float("inf"), outside cli._check_keys and outside comprehensions: a
    comprehension is a per-element scan (of layout coordinates, say),
    which stays inline."""
    tree = ast.parse(path.read_text())
    scans = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, scans) or isinstance(node, ast.FunctionDef) \
                and (path.name, node.name) == ("cli.py", "_check_keys"):
            exempt.update(id(n) for n in ast.walk(node))
    texts = [(n.lineno, ast.unparse(n)) for n in ast.walk(tree)
             if isinstance(n, ast.Compare) and id(n) not in exempt]
    return [f"{path.name}:{line}: {text}" for line, text in texts
            if "is not int" in text or "float('inf')" in text]


def test_one_home_for_number_checks():
    # errors.check_int and errors.check_real hold the rule for a valid
    # number; a copy elsewhere would drift from it.  cli._check_keys keeps
    # its own, since it names config keys by their dotted path.
    found = [
        line
        for path in sorted((ROOT / "src" / "pixelret").glob("*.py"))
        if path.name != "errors.py"
        for line in _hand_written_number_checks(path)
    ]
    assert found == []


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about 0.8 s and 48 MiB to import; nothing needs it.
    code = "import sys, pixelret, pixelret.cli; print('scipy.signal' in sys.modules)"
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_scripts_load_without_running():
    # Every script loads under another name than __main__, in one process:
    # a library name a script imports cannot be deleted unnoticed, and no
    # script may do its work at import.
    scripts = sorted(str(p) for p in SCRIPTS.glob("*.py"))
    assert scripts
    code = (
        "import runpy, sys\n"
        "for path in sys.argv[1:]:\n"
        "    runpy.run_path(path, run_name='not_main')\n"
        "    print(path)\n"
    )
    out = _python("-c", code, *scripts)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == scripts


def test_readme_layout_example_parses():
    # The README's format section shows a 10 x 30 nm line; the doc and the
    # parser cannot drift apart unnoticed.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Layout file format", 1)[1]
    example = section.split("```", 2)[1]
    assert parse_layout(example) == generate_test_pattern("isolated_line", 10, length=30)

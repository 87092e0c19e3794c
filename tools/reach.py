"""Which ``src/repro`` functions does an entry point run?

    python tools/reach.py OUT_DIR -m repro selfcheck     # record a run
    python tools/reach.py OUT_DIR examples/quickstart.py
    python tools/reach.py --report OUT_DIR               # list what none ran

A recorded run executes under ``sys.setprofile`` / ``threading.setprofile``
and, at exit, writes one ``OUT_DIR/<pid>.txt`` naming every ``src/repro``
code object that started (``path:first line``).  OUT_DIR is put on
``PYTHONPATH`` with a ``sitecustomize.py`` that records Python child
processes too; one that leaves through ``os._exit`` (a killed or forked
pool worker) skips ``atexit`` and is missed.  ``--report`` prints every
function or method under ``src/repro`` that no recorded run started, with
its length in lines.  Development tooling: ``repro`` never imports this.
"""

import ast
import atexit
import os
import pathlib
import runpy
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1] / "src"


def install(out_dir):
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        sys.setprofile(None)
        names = {f"{pathlib.Path(c.co_filename).resolve().relative_to(ROOT)}:"
                 f"{c.co_firstlineno}" for c in seen
                 if pathlib.Path(c.co_filename).resolve().is_relative_to(ROOT)}
        pathlib.Path(out_dir, f"{os.getpid()}.txt").write_text(
            "\n".join(sorted(names)) + "\n")

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


def units(tree, prefix=""):
    """``(qualname, first line, last line)`` of every def, outermost first."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            yield prefix + node.name, first, node.end_lineno
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from units(node, f"{prefix}{node.name}.")


def report(out_dir):
    ran = set().union(*(p.read_text().split() for p in out_dir.glob("*.txt")))
    for path in sorted((ROOT / "repro").rglob("*.py")):
        rel, inside = path.relative_to(ROOT), 0
        for name, first, last in units(ast.parse(path.read_text())):
            if first > inside and f"{rel}:{first}" not in ran:
                print(f"{last - first + 1:5d}  src/{rel}::{name}")
                inside = last


if __name__ == "__main__":
    if sys.argv[1] == "--report":
        report(pathlib.Path(sys.argv[2]))
        sys.exit()
    out = pathlib.Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    (out / "sitecustomize.py").write_text(
        f"import sys\nsys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
        f"import reach\nreach.install({str(out)!r})\n")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(out), str(ROOT), os.environ.get("PYTHONPATH", "")])
    install(out)
    sys.argv = sys.argv[2:]
    if sys.argv[0] == "-m":
        sys.argv.pop(0)
        sys.path.insert(0, str(ROOT))
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    else:
        sys.path.insert(0, str(pathlib.Path(sys.argv[0]).resolve().parent))
        runpy.run_path(sys.argv[0], run_name="__main__")

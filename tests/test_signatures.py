"""A stage takes the context, or the state built from it, and no device
beside it.

A ReplayContext carries its trace's device, and a SchedulerState holds the
context it was built from. A function that also took a `config` could be
handed a device other than the one its context or state holds. Each module
under src/tensortier is parsed with `ast`, and no function may take a
`config` parameter together with a `context`, `state` or `result`
parameter.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tensortier"
CARRIERS = {"context", "state", "result"}


def config_beside_carrier(source: str) -> list[str]:
    """'name (line n)' for each function taking config and a carrier."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            names = {a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)}
            if "config" in names and names & CARRIERS:
                name = getattr(node, "name", "<lambda>")
                found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_flags_config_beside_a_carrier():
    source = (
        "def a(context, program, *, policy): pass\n"
        "def b(state, config): pass\n"
        "def c(analysis, config, *, allow_host=True): pass\n"
        "class K:\n"
        "    def d(self, item, *, config=None, result=None): pass\n"
        "f = lambda state, config: state\n"
    )
    assert config_beside_carrier(source) == ["b (line 2)", "d (line 5)",
                                             "<lambda> (line 6)"]


def test_no_stage_takes_a_config_beside_its_context_or_state():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: config_beside_carrier(path.read_text())
             for path in modules}
    assert {name: funcs for name, funcs in found.items() if funcs} == {}

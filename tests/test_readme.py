"""The README's library example runs as documented, and the names it
cites exist."""

import builtins
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import fvaudit
from fvaudit.harness import StudyConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_block() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start_block(), str(README), "exec"), {})
    passed, worst = out.getvalue().split()
    assert passed == "True"
    assert float(worst) <= 1e-12


# a backticked CamelCase name, with an optional attribute and call
_NAME = re.compile(r"`([A-Z][a-z]\w*)(?:\.(\w+))?(?:\([^`]*\))?`")


def _resolves(name: str, attr: str | None) -> bool:
    if not (hasattr(fvaudit, name) or hasattr(builtins, name)):
        return False
    if attr is None:
        return True
    obj = getattr(fvaudit, name, None) or getattr(builtins, name)
    return hasattr(obj, attr) or (dataclasses.is_dataclass(obj) and attr in {
        f.name for f in dataclasses.fields(obj)})


def test_readme_names_resolve():
    """Every class README cites is a builtin or in ``fvaudit``, and so is
    every attribute it cites of one."""
    cited = _NAME.findall(README.read_text())
    assert len(cited) >= 3
    missing = [f"{name}.{attr}" if attr else name
               for name, attr in cited if not _resolves(name, attr or None)]
    assert not missing, missing


def test_readme_config_table_lists_every_key_with_its_default():
    """README's config table names every ``StudyConfig`` key in field
    order with its default, ``t_final``'s being per problem."""
    section = README.read_text().split("### Config keys", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` +\| (.+?) +\|", section, re.MULTILINE)
    want = [(f.name, "per problem" if f.name == "t_final" else
             f"`{str(f.default).lower() if type(f.default) is bool else f.default}`")
            for f in dataclasses.fields(StudyConfig)]
    assert rows == want

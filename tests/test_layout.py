"""The package's layout: every exported name has a caller in the program."""
import importlib
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# kept although no program code calls them: the reference evaluator
# (`materialize_records` also serves criterion 8), and the names the other
# acceptance criteria call
TEST_ONLY = {
    "oracle_evaluate",
    "materialize_records",
    "new_bits",
    "roll_up",
    "drill_down",
    "naive_lca",
    "build_skip_structure",
    "multi_hop",
    "exhaustive_rank",
    "enumerate_valid_orders",
    "random_corpus",
    "random_query_doc",
}


def _name_uses(path: Path) -> Counter:
    """Each name's tokens in one file, leaving out the name a ``def`` or
    ``class`` statement defines; strings, and so ``__all__`` entries and
    docstrings, hold no name tokens."""
    uses: Counter = Counter()
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            uses[tok.string] += 1
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok.string
    return uses


def test_every_exported_name_has_a_caller_outside_tests():
    files = sorted((ROOT / "src" / "quest").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    uses = sum((_name_uses(path) for path in files), Counter())
    uncalled = []
    for path in sorted((ROOT / "src" / "quest").glob("*.py")):
        name = "quest" if path.stem == "__init__" else f"quest.{path.stem}"
        for exported in getattr(importlib.import_module(name), "__all__", ()):
            if exported not in TEST_ONLY and not uses[exported]:
                uncalled.append(f"{name}.{exported}")
    assert uncalled == []

"""Guards on the package source itself, read with ``ast``, not imported."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedsim"


def _names(node) -> set[str]:
    """Every name ``node`` reads: bare names, attribute names and
    imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unused_definitions(src: Path) -> list[str]:
    """``module.name`` of each top-level function or class of the modules
    in ``src`` that no other top-level statement of those modules reads."""
    statements = []  # (module, statement, names it reads)
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.stem, stmt, _names(stmt)))
    unused = []
    for module, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(stmt.name in names for _, other, names in statements
                       if other is not stmt):
                unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_top_level_definition_in_src_is_used_in_src():
    """A function or class that only tests call belongs in the tests."""
    assert unused_definitions(SRC) == []


def test_the_guard_flags_a_definition_read_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def alone(n):\n    return alone(n - 1) if n else used()\n\n"
        "class Kept:\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import Kept as K\n", encoding="utf-8")
    assert unused_definitions(tmp_path) == ["a.alone"]


# The modules under the floating-point policy. Each public function or
# method of theirs carries @finite_checked or is named here, by the reason
# it need not.
POLICY_MODULES = ("params", "models", "client", "server", "metrics", "data", "algorithms",
                  "engine")
UNCHECKED = {
    "the policy itself": {"params.finite_checked"},
    "index, shape, integer or comparison work only": {
        "models.make_batch", "models.param_dim", "models.layer_views",
        "models.check_inputs", "models.targets", "client.shard_group",
        "client.shard_groups", "client.derive_batch_size", "server.init_state",
        "metrics.rounds_to_target", "data.Dataset.n", "data.Dataset.subset",
        "data.Dataset.to_batch", "data.partition_iid", "data.split_stratified",
        "engine.sample_clients"},
    "set-up on bounded values: seeded draws, partitions and checks": {
        "models.init_params", "data.partition_dirichlet", "engine.prepare"},
    "Python float arithmetic, which numpy's error state does not govern": {
        "client.LocalConfig.lr", "metrics.ema_update"},
    "runs per local step, inside local_update": {
        "params.sq_norms", "models.gradient_unchecked", "client.combine"},
    "runs inside a decorated caller: Round, example_losses or engine.run": {
        "params.Mean.add", "params.Mean.result", "models.class_sum",
        "algorithms.momentum_residual_bound"},
    "its float arithmetic is all in decorated calls (axpy, Round)": {
        "algorithms.lookahead", "server.aggregate", "algorithms.aggregate_fedagm"},
    "test and selftest oracle on bounded inputs, no run calls it": {"models.fd_gradient"},
}


def errstate_uses(src: Path) -> list[str]:
    """``module.name`` of the top-level statement around each use of
    ``errstate`` in the modules in ``src``."""
    uses = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if "errstate" in _names(stmt):
                uses.append(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    return uses


def public_functions(src: Path, modules) -> dict[str, bool]:
    """Each public function and method of ``modules`` in ``src``, as
    ``module.name`` or ``module.Class.name``: whether it carries
    ``@finite_checked``."""
    found = {}
    for module in modules:
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for stmt in tree.body:
            members = [(f"{module}.", stmt)]
            if isinstance(stmt, ast.ClassDef):
                members = [(f"{module}.{stmt.name}.", m) for m in stmt.body]
            for prefix, fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    found[prefix + fn.name] = any(
                        isinstance(d, ast.Name) and d.id == "finite_checked"
                        for d in fn.decorator_list)
    return found


def test_src_declares_its_floating_point_policy_once():
    assert errstate_uses(SRC) == ["params.finite_checked"]


def test_every_public_numeric_function_carries_the_policy_or_a_reason():
    found = public_functions(SRC, POLICY_MODULES)
    exempt = set().union(*UNCHECKED.values())
    assert sorted(name for name, checked in found.items()
                  if not checked and name not in exempt) == []
    # no reason names a decorated or a missing function
    assert sorted(name for name in exempt if found.get(name, True)) == []


def test_the_policy_guards_flag_a_local_block_and_an_unchecked_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n\n"
        "@finite_checked\ndef kept(x):\n    return x * x\n\n"
        "class Box:\n    def grow(self, x):\n"
        "        with np.errstate(over='ignore'):\n            return x * x\n",
        encoding="utf-8")
    assert errstate_uses(tmp_path) == ["a.Box"]
    assert public_functions(tmp_path, ["a"]) == {"a.kept": True, "a.Box.grow": False}

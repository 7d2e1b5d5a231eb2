"""The CLI's exit-code contract as a fuzzed property.

A tiny valid ``fedsim run`` is mutated, through the config file and
through ``--set``, with values from a fixed pool, and its CSV data file
is corrupted; a ``fedsim compare`` of two copies of it has its second
config mutated the same way. About one invocation in eight finds a
directory where one of its output files goes. Every invocation must:

* exit 0, 2 or 3, never with a traceback;
* on exit 2 or 3, print exactly one ``error:`` line to stderr, which names
  a mutated key or a file (exit 2) or the round (exit 3);
* leave a ``manifest.json`` with a ``status`` whenever it created the
  output directory, and in each run directory of a compare; an output
  that could not be written ends in exit 2 naming it, and the manifest
  beside it says ``io_error``.

The run and compare fuzz tests must each see all three exit codes, and
an invocation that ends on each output path they block.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fedsim.cli import DEFAULT_CONFIG, main

BASE = {
    "algorithm": "fedagm",
    "rounds": 2,
    "clients": 4,
    "seed": 1,
    "model": {"input_dim": 3, "output_dim": 2},
    "data": {"classes": 2, "train_per_class": 6, "test_per_class": 3, "input_dim": 3},
    "partition": {"kind": "dirichlet", "concentration": 0.5},
    "local": {"k": 2},
}

# 1e300 is a valid value of every float key; as the step size, a gradient
# weight, the decay or the data spread it makes the run diverge (exit 3)
POOL = (None, True, "x", [], {}, -1, 0, 1.5, 1e300, math.nan, math.inf, -math.inf)
DIVERGING_KEYS = ("local.lr0", "local.alpha", "local.beta", "model.l2_weight_decay",
                  "data.spread")
# only the size keys take these, so that no run is long
HUGE = (10 ** 15, 2 ** 64, 10 ** 400)

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _keys(tree, prefix=""):
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


KEYS = tuple(_keys(DEFAULT_CONFIG))


def _is_size_key(key: str) -> bool:
    return key.startswith(("data.", "model.")) or key == "clients"


@st.composite
def mutation(draw):
    # one mutation in four sets a diverging key to 1e300, so that a share
    # of the runs exit 3
    if draw(st.integers(0, 3)) == 0:
        key, value = draw(st.sampled_from(DIVERGING_KEYS)), 1e300
    else:
        key = draw(st.sampled_from(KEYS))
        value = draw(st.sampled_from(POOL + HUGE if _is_size_key(key) else POOL))
    return key, value, draw(st.sampled_from(("file", "set")))


def _put(cfg: dict, key: str, value) -> None:
    *sections, leaf = key.split(".")
    for section in sections:
        cfg = cfg.setdefault(section, {})
    cfg[leaf] = value


def _set_text(value) -> str:
    # a bare string takes the --set fallback; everything else is JSON,
    # NaN and Infinity included
    return value if isinstance(value, str) else json.dumps(value)


def _names(line: str, key: str) -> bool:
    """Whether ``line`` names ``key``: each part of the dotted key
    appears in it as a word."""
    return all(re.search(rf"\b{re.escape(p)}\b", line) for p in key.split("."))


def invoke(tmp: Path, cfg: dict, overrides=(), first=None) -> tuple[int, list[str], Path]:
    """Run ``fedsim run`` on ``cfg`` in-process, or, given a ``first``
    config, ``fedsim compare`` on ``first`` and ``cfg``; returns the exit
    code, the stderr lines and the output directory."""
    configs = [cfg] if first is None else [first, cfg]
    args = ["run" if first is None else "compare"]
    for i, c in enumerate(configs):
        path = tmp / f"cfg{i}.json"
        path.write_text(json.dumps(c), encoding="utf-8")
        args += ["--config", str(path)]
    out = tmp / "out"
    args += ["--out", str(out)]
    for key, value in overrides:
        args += ["--set", f"{key}={_set_text(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue().splitlines(), out


def check_contract(code: int, err: list[str], out: Path, names, blocked=None) -> bool:
    """``blocked``, when given, is an output path inside ``out`` that was
    made a directory before the invocation. Returns whether the
    invocation ended on it, in exit 2 and an ``io_error`` manifest."""
    assert code in (0, 2, 3), (code, err)
    assert blocked is None or code != 0, "an output that cannot be written was skipped"
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err
    io_error = code == 2 and blocked is not None and str(blocked) in err[0]
    if code == 2:
        assert io_error or any(names(err[0])), err[0]
    elif code == 3:
        assert "round=" in err[0], err[0]
    # a run that started, whether it finished, diverged or could not write
    # an output, leaves its manifest; a rejected one writes nothing
    started = code != 2 or io_error
    if blocked is None:
        assert out.exists() == started
    else:
        assert (out / "manifest.json").exists() == started
    if started:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status"] == {0: "ok", 2: "io_error", 3: "numeric_abort"}[code]
        for run_dir in filter(Path.is_dir, out.iterdir()):
            if run_dir != blocked:
                manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
                assert manifest["status"] in ("ok", "numeric_abort")
    return io_error


def test_the_base_config_runs():
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = invoke(Path(tmp), BASE)
    assert (code, err) == (0, [])


def _mutate(mutations) -> tuple[dict, list]:
    """BASE with the file mutations applied, and the ``--set`` ones."""
    keys = [key for key, _, _ in mutations]
    # a section and a key inside it would overwrite each other
    assume(not any(b.startswith(a + ".") for a in keys for b in keys))
    cfg = copy.deepcopy(BASE)
    overrides = []
    for key, value, channel in mutations:
        if channel == "file":
            _put(cfg, key, value)
        else:
            overrides.append((key, value))
    return cfg, overrides


MUTATIONS = st.lists(mutation(), min_size=1, max_size=3, unique_by=lambda m: m[0])


def blocked_output(*names):
    """An output file name, drawn with probability 1/8, or None."""
    return st.integers(0, 8 * len(names) - 1).map(
        lambda i: names[i] if i < len(names) else None)


def block(tmp: Path, name) -> Path | None:
    """Make a directory where the output file ``name`` of ``invoke`` goes."""
    if name is None:
        return None
    path = tmp / "out" / name
    path.mkdir(parents=True)
    return path


def test_mutated_configs_keep_the_exit_code_contract():
    codes, io_errors = set(), []

    @FUZZ
    @given(MUTATIONS, blocked_output("rounds.csv", "summary.json"))
    def check(mutations, name):
        cfg, overrides = _mutate(mutations)
        with tempfile.TemporaryDirectory() as tmp:
            blocked = block(Path(tmp), name)
            code, err, out = invoke(Path(tmp), cfg, overrides)
            if check_contract(code, err, out,
                              lambda line: (_names(line, key) for key, _, _ in mutations),
                              blocked):
                io_errors.append(name)
        codes.add(code)

    check()
    assert codes == {0, 2, 3}
    assert set(io_errors) == {"rounds.csv", "summary.json"}


def test_mutated_compare_keeps_the_exit_code_contract():
    # the file mutations reach the second config only, the --set ones both;
    # a second config whose data, model or schedule differs is named by path
    codes, io_errors = set(), []

    @FUZZ
    @given(MUTATIONS, blocked_output("cfg0_curve.csv"))
    def check(mutations, name):
        cfg, overrides = _mutate(mutations)
        with tempfile.TemporaryDirectory() as tmp:
            blocked = block(Path(tmp), name)
            code, err, out = invoke(Path(tmp), cfg, overrides, first=BASE)
            second = str(Path(tmp) / "cfg1.json")
            if check_contract(code, err, out, lambda line: (
                    second in line, *(_names(line, key) for key, _, _ in mutations)),
                    blocked):
                io_errors.append(name)
        codes.add(code)

    check()
    assert codes == {0, 2, 3} and io_errors


HEADER = ["f0", "f1", "f2", "label"]
BAD_CELLS = ("x", "", "nan", "-inf", "1e999", "1,5", "0x10")


@st.composite
def corruption(draw):
    kind = draw(st.sampled_from(("bad_cell", "missing_column", "huge_column")))
    row = draw(st.integers(0, 19))
    column = draw(st.integers(0, 3 if kind == "missing_column" else 2))
    if kind == "bad_cell":
        detail = draw(st.sampled_from(BAD_CELLS))
    elif kind == "huge_column":  # one value per row
        detail = draw(st.lists(st.sampled_from((1e308, -1e308, 1.7e308)),
                               min_size=20, max_size=20))
    else:
        detail = None
    return kind, row, column, detail


def _csv_rows(seed: int) -> list[list[str]]:
    rows = []
    for i in range(20):
        feats = [repr(((seed + 7 * i + 3 * j) % 11) / 5.0 - 1.0) for j in range(3)]
        rows.append(feats + [f"c{(i + seed) % 2}"])
    return rows


@FUZZ
@given(corruption(), st.integers(0, 10), st.booleans())
def test_corrupted_csv_files_keep_the_exit_code_contract(corrupt, seed, normalize):
    kind, row, column, detail = corrupt
    header, rows = list(HEADER), _csv_rows(seed)
    if kind == "bad_cell":
        rows[row][column] = detail
    elif kind == "missing_column":
        del header[column]
        for r in rows:
            del r[column]
    else:
        for r, value in zip(rows, detail):
            r[column] = repr(value)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                        encoding="utf-8")
        cfg = copy.deepcopy(BASE)
        cfg["data"] = {"kind": "csv", "path": str(data), "label_column": "label",
                       "normalize": normalize}
        code, err, out = invoke(Path(tmp), cfg)
        check_contract(code, err, out, lambda line: (
            name in line for name in (str(data), "model.input_dim")))

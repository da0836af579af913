"""Seeded outputs of the five experiments against committed goldens.

The configs are those of criterion 10 (test_acceptance.py,
test_criterion_10_determinism): master seed 5 and a clock that always reads
0. Every file they write is compared byte for
byte with tests/golden/<experiment>/<file>, except resolved_config.json,
which records the output directory and the config's own layout. On a
mismatch the failure names each file and gives, per numeric column, the
largest absolute and relative change, so a last-digit drift reads
differently from a real change. It also names the numpy and Python versions
that wrote the goldens (tests/golden/versions.json) next to those running:
the written rates go through numpy's log1p, so another numpy or libm can
move last digits. So can another BLAS core: the dot products of the
numpy kernels (kernels._user_pc's gs @ mu, say) run in the BLAS that numpy
picks for the host CPU, and OPENBLAS_CORETYPE=Prescott moves one of the
cdf experiment's EPA rates by 3.3e-16 relative.

A change that moves outputs by design re-blesses the goldens with

    PYTHONPATH=src python tests/test_golden.py --bless
"""

import csv
import io
import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

from cellfree_maxmin.harness import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().with_name("golden")
VERSIONS = "versions.json"
NOT_COMPARED = {"resolved_config.json", VERSIONS}
CONFIGS = {
    "convergence": dict(num_aps=8, group_sizes=(2, 2)),
    "cdf": dict(num_aps=6, group_sizes=(2, 2), trials=2),
    "scaling": dict(num_aps=6, group_sizes=(2, 2), scaling_m_grid=(4, 6)),
    "verify-rate": dict(num_aps=4, group_sizes=(2, 2), trials=2, mc_draws=20_000),
    "single-solve": dict(num_aps=8, group_sizes=(2, 2)),
}


def run_all(root: Path) -> None:
    for kind, kw in CONFIGS.items():
        cfg = ExperimentConfig(kind=kind, master_seed=5, out_dir=str(root / kind), **kw)
        run_experiment(cfg, clock=lambda: 0.0)


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def output_files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in NOT_COMPARED}


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(_flatten(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: doc if isinstance(doc, list) else [doc]}


def _columns(name: str, data: bytes) -> dict:
    """Column name -> cells: a CSV's columns, or a JSON file's leaves by
    dotted path."""
    text = data.decode()
    if name.endswith(".json"):
        return _flatten(json.loads(text))
    rows = list(csv.reader(io.StringIO(text)))
    return dict(zip(rows[0], zip(*rows[1:]))) if rows else {}


def describe_change(name: str, old: bytes, new: bytes) -> list:
    """One line per column of `name` that changed between the golden `old`
    and the output `new`."""
    a, b = _columns(name, old), _columns(name, new)
    lines = []
    for col in list(a) + [c for c in b if c not in a]:
        if col not in a or col not in b:
            lines.append(f"{col}: only in the {'golden' if col in a else 'new output'}")
            continue
        x, y = a[col], b[col]
        if len(x) != len(y):
            lines.append(f"{col}: {len(x)} rows in the golden, {len(y)} now")
            continue
        try:
            fx, fy = np.array(x, dtype=float), np.array(y, dtype=float)
        except (TypeError, ValueError):
            differ = sum(p != q for p, q in zip(x, y))
            if differ:
                lines.append(f"{col}: {differ} of {len(x)} cells differ")
            continue
        changed = (fx != fy) & ~(np.isnan(fx) & np.isnan(fy))
        if not changed.any():
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.abs(fx - fy)[changed]
            rel = err / np.maximum(np.abs(fx), np.abs(fy))[changed]
        lines.append(f"{col}: {changed.sum()} of {len(x)} values changed, largest absolute "
                     f"change {np.nanmax(err):.3e}, largest relative {np.nanmax(rel):.3e}")
    return lines or ["bytes differ, every value equal (formatting)"]


def test_outputs_match_goldens(tmp_path):
    run_all(tmp_path)
    expected, written = output_files(GOLDEN), output_files(tmp_path)
    problems = []
    for name in sorted(expected | written):
        if name not in written:
            problems.append(f"{name}: not written")
        elif name not in expected:
            problems.append(f"{name}: written, but no golden")
        else:
            old, new = (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes()
            if old != new:
                problems.append(f"{name}:")
                problems.extend("    " + line for line in describe_change(name, old, new))
    blessed = json.loads((GOLDEN / VERSIONS).read_text())
    assert not problems, (
        f"seeded outputs differ from tests/golden (blessed with {blessed}, running "
        f"{versions()}):\n" + "\n".join(problems))


def test_describe_change_reports_columns():
    old = b"trial,rate_nats,ok\r\n0,1.0,true\r\n1,2.0,true\r\n"
    new = b"trial,rate_nats,ok\r\n0,1.0,true\r\n1,2.5,false\r\n"
    assert describe_change("x.csv", old, new) == [
        "rate_nats: 1 of 2 values changed, largest absolute change 5.000e-01, "
        "largest relative 2.000e-01",
        "ok: 1 of 2 cells differ"]
    assert describe_change("i.json", b'{"a": {"b": [1.0, 2.0]}}', b'{"a": {"b": [1.0]}}') == [
        "a.b: 2 rows in the golden, 1 now"]


def bless() -> None:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    run_all(GOLDEN)
    for path in GOLDEN.rglob("resolved_config.json"):
        path.unlink()
    (GOLDEN / VERSIONS).write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(output_files(GOLDEN))} goldens under {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --bless")
    bless()

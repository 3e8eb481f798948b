"""The benchmark's own checker must condemn corrupted outputs.

    python3 -m pytest perfbench/test_checks.py -q     (or python3 perfbench/test_checks.py)

Each checker test runs one small round of a workload, confirms the checks
pass on its real outputs, then corrupts a copy (one hypothesis word changed,
one fused row shifted) and confirms the checks report failed cells. A last
test confirms that a round whose program raises reports the fault.
"""

import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

# small, but with enough training data for a DFN that beats the uniform
# predictor, which the checks demand
SMALL = dict(worlds=1, train=30, val=6, test=3, grid=[0], steps=100,
             strategies=["ao", "oracle", "dfn-blstm"])


def _round(name: str, tmp: Path):
    workloads.WORKLOADS[name] = {**workloads.WORKLOADS[name], **SMALL}
    harness = workloads.Harness(name, seed=7)
    out = tmp / name
    harness.run_round(out)
    return harness, out


def _correct_cell(cells: dict):
    """A cell whose hypothesis equals its reference, so that changing one
    hypothesis word must add an error."""
    return next(key for key, (ref, hyp) in sorted(cells.items())
                if ref == hyp)


def _shift_row(captures: checks.Captures) -> checks.Captures:
    bad = checks.Captures()
    bad.oracle = list(captures.oracle)
    bad.dfn = [(s, m.copy()) for s, m in captures.dfn]
    bad.dfn[0][1][0] += 0.5
    return bad


def test_sweep_checker_condemns_corruption():
    with tempfile.TemporaryDirectory() as tmp:
        harness, out = _round("train-dfn", Path(tmp))
        assert harness.check(out) == set()

        bad_rows = _shift_row(harness.captures)
        assert checks.check_sweep(out, harness.expected,
                                  harness.world.config.num_states, bad_rows)

        doc = json.loads((out / "sweep.json").read_text())
        cells = {i: (u["reference"], u["hypothesis"])
                 for i, u in enumerate(doc["utterances"])}
        doc["utterances"][_correct_cell(cells)]["hypothesis"][0] = "<bad>"
        (out / "sweep.json").write_text(json.dumps(doc))
        failed = harness.check(out)
        assert failed and failed < harness.expected


def test_staged_checker_condemns_corruption():
    with tempfile.TemporaryDirectory() as tmp:
        harness, out = _round("staged", Path(tmp))
        assert harness.check(out) == set()
        assert checks.check_staged(out, harness.expected, harness.graph,
                                   _shift_row(harness.captures))

        # one fused row shifted on disk: the recorded best score now lies
        # below the true path's score on the shifted emissions
        copy = Path(tmp) / "shifted"
        shutil.copytree(out, copy)
        seed = harness.first_seed
        fused = sorted((copy / "fused" / "dfn-blstm" / f"seed{seed}")
                       .glob("*.avpf"))[0]
        data = bytearray(fused.read_bytes())
        _, rows, cols = struct.unpack_from("<III", data, 4)
        mat = np.frombuffer(bytes(data[16:]), "<f4").reshape(rows, cols) + 0
        mat[rows // 2] += 1e3
        data[16:] = mat.astype("<f4").tobytes()
        fused.write_bytes(bytes(data))
        assert harness.check(copy)

        # one hypothesis word changed: the pooled WER no longer matches
        manifest = json.loads((out / "manifest.json").read_text())
        refs = {u["id"]: u["transcript"] for u in manifest["utterances"]}
        dec_path = out / "decode" / f"ao.seed{seed}.json"
        hyps = json.loads(dec_path.read_text())
        cells = {(lab, uid): (refs[uid], entry["words"])
                 for lab, by_utt in hyps.items()
                 for uid, entry in by_utt.items()}
        lab, uid = _correct_cell(cells)
        hyps[lab][uid]["words"][0] = "<bad>"
        dec_path.write_text(json.dumps(hyps))
        failed = harness.check(out)
        assert failed and failed < harness.expected


def test_program_fault_is_reported():
    """A round whose program raises returns the traceback (run.py then
    fails all its cells) and leaves no patch behind."""
    real = workloads.experiment.run_sweep

    def broken(cfg):
        raise ValueError("injected fault")

    workloads.experiment.run_sweep = broken
    try:
        with tempfile.TemporaryDirectory() as tmp:
            harness = workloads.Harness("train-dfn", seed=7)
            rnd = harness.run_round(Path(tmp) / "round")
    finally:
        workloads.experiment.run_sweep = real
    assert "injected fault" in rnd["error"]
    assert workloads.experiment.build_world.__module__ == "avfusion.corpus"
    assert workloads.experiment.dfn_fuse.__module__ == "avfusion.fusion"


if __name__ == "__main__":
    test_sweep_checker_condemns_corruption()
    test_staged_checker_condemns_corruption()
    test_program_fault_is_reported()
    print("checker tests passed")

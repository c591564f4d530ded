"""Golden bytes: feature CSVs, results.csv of seeded logs and feature-map
states, pinned by hash.

The encode and classical bench hashes were taken before the fold encoding
moved from per-sample feature vectors to whole matrices; the quantum bench
and state hashes before the statevector engine moved its gates onto float64
views and reused buffers. The angle-map state hashes anglex1@9 and
anglex2@* were re-pinned when that map became one product state of L x
(the same values to 1e-15, multiplied in another order), and angle_zzx1@1
when H and RY moved to float64 views on the last qubit too (values
``np.array_equal``, only the sign of zero imaginary parts changed). The
shot-mode qke hash was re-pinned three times: when kernel shots moved from
one generator per entry to one binomial generator per row (a new random
stream, the same distribution), when shot Gram matrices went to the SVM
as drawn instead of with their diagonal shifted to make them positive
semi-definite (the same draws, a different fit, mean accuracy 0.3372 ->
0.3436), and, with the shot qke_angle_1 hash, when a fold's cross rows
moved to the generators after its Gram rows', so that test row i no longer
replays train row i's draws (the Gram draws kept; mean accuracy
qke_zz_2 0.3436 -> 0.3083, qke_angle_1 0.4676 -> 0.3931); the shot-mode
vqc hash was re-pinned once, when the VQC readout moved from uniforms
shared by every row to one multinomial draw per row over the exact
marginal (a new random stream, the same per-row distribution, rows
independent). The svc_rbf+freq_act+batch hash was
re-pinned when exact kernel folds moved to one SVM variable per distinct
(row, label) pair boxed by C times its count: the same dual optimum, solved
to the same KKT tolerance along another path, so one test prediction near a
tie flipped (fold 2 accuracy 0.400 -> 0.375). Any change to how a feature value,
amplitude or score is computed, scaled or written shows up here as a
different digest. To re-pin after an intended change, run
``python tests/test_golden.py`` and paste the printed table.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import make_log, make_trace  # noqa: E402
from icppm.cli import main  # noqa: E402
from icppm.eventlog import EventLog, write_csv  # noqa: E402
from icppm.intercase import FEATURES  # noqa: E402
from icppm.qsim import FEATURE_MAPS, FeatureMapKind, feature_map_states  # noqa: E402

LOGS = {"float": False, "int": True}

ENCODE_CASES = {
    "scaled": ("float", []),
    "no_scale": ("float", ["--no-scale"]),
    "last_state": ("int", ["--encoder", "last_state", "--no-scale"]),
    "agg_count": ("int", ["--encoder", "agg_count"]),
    "agg_bool": ("int", ["--encoder", "agg_bool", "--no-scale"]),
    "static": ("float", ["--encoder", "static", "--static-attrs", "channel,tier"]),
    **{
        f"{feature}@{kind}": (kind, ["--k", "3", "--inter", feature, "--epsilon", "100"])
        for feature in FEATURES
        for kind in LOGS
    },
}

# Case -> (config entries, CLI flags).
BENCH_CASES = {
    **{
        f"{clf}+{'+'.join(feats)}": ({"classifier": clf, "inter_features": list(feats)}, [])
        for clf in ("majority", "svc_rbf")
        for feats in (("peer_cases", "avg_delay"), ("freq_act", "batch"))
    },
    **{
        f"{clf}+peer_cases{tag}": ({"classifier": clf, "inter_features": ["peer_cases"],
                                    "epochs": 3}, flags)
        for clf in ("qke_zz_2", "qke_angle_1", "vqc_angle_1")
        for tag, flags in (("", []), ("@shots50", ["--shots", "50"]))
    },
}

# Case -> (feature map, map layers, qubits).
STATE_CASES = {
    f"{variant}x{layers}@{n}": (variant, layers, n)
    for variant in FEATURE_MAPS
    for layers in (1, 2)
    for n in (1, 2, 9)
}

GOLDEN = {
    "encode/agg_bool": "e2fc5a18fa5742f48c78fdeed5c32ff2d1320d0e8998c1b5eb64436c1a573d08",
    "encode/agg_count": "489ed8ce8a6c05fde149a74ddad2a9f03c1a5e321144561ccadc6bd44ed403ef",
    "encode/avg_delay@float": "faf600264dedd4e694b68508e734c3e09f42319bc9ac15aa0b86b39571fb0a71",
    "encode/avg_delay@int": "3d53758a7da892906af971e359cfd6689359980558fea0e2fe9610750253bbeb",
    "encode/batch@float": "4bcf553c7df70b41cbd24fa5d114687f775d1da00e639d9dc4f3a06f5a5b3664",
    "encode/batch@int": "4bcf553c7df70b41cbd24fa5d114687f775d1da00e639d9dc4f3a06f5a5b3664",
    "encode/freq_act@float": "09fc6efcd73b2586c36f00ce46dcb7f770dbd9f42eb5a8475d48b107c8a007c9",
    "encode/freq_act@int": "6829001d944f46494ee2291985f704a1018b8d86c2a941087179d9bf079c3dfb",
    "encode/last_state": "1878b672eb8a4ca3c09d5366e4f9d89154570626c0710824d404b72a89d3a830",
    "encode/no_scale": "e225d69342e8f0fa3a81db53b809fb7907eeaaeb308ee6fb30b2bfa2435cfd3d",
    "encode/peer_act@float": "f3ea6e5f895c4afa7f7748ca79b8be80674bca346bea0ca9e85487c2926bc95a",
    "encode/peer_act@int": "5e2daa69bae81dd70f42562388b519b4263cfadd43012ad9d28fb126c5584b37",
    "encode/peer_cases@float": "ca529034140841dcf18b8b946a2e74f9b62e09bd4861fa69a803ee27b0b87f74",
    "encode/peer_cases@int": "054991753ca32d1ba4b62f20add76ea534b39b03aca7bd37d57a0d5db12c1522",
    "encode/res_count@float": "58bf0f8598baf20a745dcde26e0f51e6bd9d2da2a4fea4e7168e873a7ae0c504",
    "encode/res_count@int": "344df8012936c4018f648d193a785f0a6756fce09cad44df8129466453a343e4",
    "encode/scaled": "57931c86fa279ab4058f05696625ce9c76d457d1ad87832a426b2719c38e43e3",
    "encode/static": "7a48ca78038171673dca9306668de712961b753fd289cb92e66b2cab0e917e2d",
    "encode/top_res@float": "fdc4c8919070d5bb42ac0bb8abd20ac27c561d89904e6ca85c89994bc1321352",
    "encode/top_res@int": "f5110e136035bc4938760996ee9b54414bceba6a7b5cdfcbfc9793d1f56777ee",
    "bench/majority+freq_act+batch": "6b27aa1859dc8488c75e8a59586a7b4f9208b7fa085dfff5287fac4e4af14834",
    "bench/majority+peer_cases+avg_delay": "32e276019d6f8a51e4b7b2a31246ac03e50ca87960c73d4cbc102df1286f5d6f",
    "bench/qke_angle_1+peer_cases": "f44d7e8de89accca6c0688b8b430e825faf93af08e305176a24f3fad9fcab89c",
    "bench/qke_angle_1+peer_cases@shots50": "95cfad7ccaeb9f34f4d09f8f4b3675a0d1fd9b5299b3d5ee6d44e7d2fcb512a9",
    "bench/qke_zz_2+peer_cases": "f4dd95eca108b444b8f760d9c488068f3071de1a2de0f38718633a08b288c916",
    "bench/qke_zz_2+peer_cases@shots50": "836a71a3b34c76450d02e22fb2d7340a63fd8fa197d6520f7e86c242fcc054f6",
    "bench/svc_rbf+freq_act+batch": "ccf57fad41e00e5145ee1c73701e717a697859a95e25687a88ad1a304a987e8d",
    "bench/svc_rbf+peer_cases+avg_delay": "88d01f77a031a1493c13c93a42c69958bb6a5ee5c71035ee4ee536c744de8c00",
    "bench/vqc_angle_1+peer_cases": "e6b041efa35aba865a2b3124ecf9bc85d2263d425c461adae0acd7b3f8f9f35c",
    "bench/vqc_angle_1+peer_cases@shots50": "68e34569a4dd329788af1b141b3c72658a1d01946f8de96f3746a30d9a56d2bd",
    "states/angle_zzx1@1": "573e3a59061c05df1c3cb887d13ca629a34d946322c04fbe6c136dc206fcea54",
    "states/angle_zzx1@2": "36c1b088e81d74b4e724121be48ddb42ff306e1f9b71904f876e93d3b46b3d0e",
    "states/angle_zzx1@9": "98476acac9cdae688d642a48eb0e0fe9059bfee9a3878ef77f7b54881cdef262",
    "states/angle_zzx2@1": "b638a5cb797a2fc22b08c2f07ed75d6352003e06dd7b5b0462088d53b6856161",
    "states/angle_zzx2@2": "228058288580a9c03f1ac4ec5a1a7e0637a9c13d351408d3460ceb6923c98377",
    "states/angle_zzx2@9": "9b131bcf89eb612105043cd7c46862db41cc658a67c88b8fe9b52e51b46ea0dd",
    "states/anglex1@1": "fd2f704137694f227b6301946c8bb30012e1b7f97c1b52551831ff95f7a98784",
    "states/anglex1@2": "1eded482fafc06383ee214fb6be71f9a208aee42b229541f7f80d7a2df572ede",
    "states/anglex1@9": "60e469d07503a3c4e6eae3aaf20e29e7421ba30556e74348e937f375d7d53800",
    "states/anglex2@1": "38e3f92285f889a60585b7c15f0bfd3dfe52e713a6fa970f4ddabbd9f5726c98",
    "states/anglex2@2": "e2cdee9fafd3fa8921c4afc5e231b99cc073ff63929b4a639c65d61710a69a67",
    "states/anglex2@9": "92990cdc8889da8720b57910afd7bdf0dbfb66340a45d48faf497c213b983a6a",
    "states/zzx1@1": "b1690da96197ab9d6c85af75732b8cffcda577dba7df928c9bc4a383518437a7",
    "states/zzx1@2": "b2700f800d062d28f2a835649514f4a0b3195ccdd3cd05f8ee0b60b00aff87cb",
    "states/zzx1@9": "41206da59c7812615882ab95aa1b5bdd88b3d9de1f4ffab19a47fdfb1d252b01",
    "states/zzx2@1": "d0ef62cde1765acc205f58a2bfe5faddd8c7fc2b7403d12dcaa3ed510ad136c6",
    "states/zzx2@2": "303cff52e0f7fd0b96ab4778d8f040d597943de3554b18d9c1452321b2875e95",
    "states/zzx2@9": "71c0b7dd66f697564cb2bb5980b30c0f3a987b63518346e8c1b3f9b6e6733b85",
}


def golden_log(integer_times: bool) -> EventLog:
    """A seeded log of overlapping cases with two case attributes.

    Activities follow a chain in which each activity has its own successor
    set, so the batch feature differs between anchors.
    """
    rng = random.Random(5)
    successors = {"a": "bc", "b": "cd", "c": "d", "d": "ab"}
    traces = []
    for c in range(40):
        t = rng.uniform(0, 5000.0)
        act = rng.choice("ab")
        spec = []
        for _ in range(rng.randint(1, 6)):
            if integer_times:
                t = float(int(t))
            res = rng.choice(("r1", "r2", "r3")) if rng.random() < 0.8 else None
            spec.append((act, t, res))
            t += rng.uniform(1, 500.0)
            act = rng.choice(successors[act])
        attrs = {"channel": ("web", "phone", "mail")[c % 3], "tier": ("gold", "basic")[c % 2]}
        traces.append(make_trace(f"case{c}", spec, attrs))
    return make_log(*traces)


def _write_log(directory: Path, kind: str) -> Path:
    path = directory / f"golden-{kind}.csv"
    if not path.exists():
        with path.open("w") as sink:
            write_csv(golden_log(LOGS[kind]), sink)
    return path


def encode_digest(directory: Path, case: str) -> str:
    kind, flags = ENCODE_CASES[case]
    out = directory / f"encode-{case}.csv"
    assert main(["encode", str(_write_log(directory, kind)), "--out", str(out), *flags]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def bench_digest(directory: Path, case: str) -> str:
    entries, flags = BENCH_CASES[case]
    cfg = {"dataset": str(_write_log(directory, "float")), "folds": 3, "seed": 1,
           "epsilon": 100.0, **entries}
    cfg_path = directory / f"bench-{case}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = directory / f"bench-{case}"
    assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir), *flags]) == 0
    return hashlib.sha256((out_dir / "results.csv").read_bytes()).hexdigest()


def state_digest(case: str) -> str:
    variant, layers, n = STATE_CASES[case]
    x = np.random.default_rng(n).uniform(0.0, np.pi, size=(6, n))
    states = feature_map_states(FeatureMapKind(variant, layers), x)
    return hashlib.sha256(states.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(ENCODE_CASES))
def test_encode_output_bytes(case, tmp_path, capsys):
    assert encode_digest(tmp_path, case) == GOLDEN[f"encode/{case}"]


@pytest.mark.parametrize("case", sorted(BENCH_CASES))
def test_results_csv_bytes(case, tmp_path, capsys):
    assert bench_digest(tmp_path, case) == GOLDEN[f"bench/{case}"]


@pytest.mark.parametrize("case", sorted(STATE_CASES))
def test_feature_map_state_bytes(case):
    assert state_digest(case) == GOLDEN[f"states/{case}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        table = {f"encode/{c}": encode_digest(directory, c) for c in sorted(ENCODE_CASES)}
        table |= {f"bench/{c}": bench_digest(directory, c) for c in sorted(BENCH_CASES)}
    table |= {f"states/{c}": state_digest(c) for c in sorted(STATE_CASES)}
    print("GOLDEN = {")
    for key, digest in table.items():
        print(f'    "{key}": "{digest}",')
    print("}")

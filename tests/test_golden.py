"""Golden sha256 hashes of ``pemkit simulate`` output, and a golden ``pemkit learn`` result.

The hashes were recorded before the tick loop computed occlusion intervals
lazily, scanned the policy's obstacles once per perception frame and kept
one pose cache per actor. Every simulate output is meant to stay
byte-identical across such changes, and across the in-process and forked
runs of a command: on one CPU the cells run in this process, on more they
run on forked workers. The outputs depend only on NumPy's generators and
``math``, so the hashes also pin them across Python and NumPy versions.

``learn`` is pinned in two parts. Its diagnostics' ``coverage`` and
``per_condition`` blocks come from integer counting alone, so their hash is
exact. The model's fields pass through NumPy's SIMD ``exp`` and ``log``, BLAS
and SuperLU, whose last bits can differ by CPU and by version, so they are
compared with a stored table within ``car.GRAD_TOL`` relative, the fit's own
gradient tolerance, and the model file's hash is not pinned. Both were
recorded before ``PemModel`` became immutable.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from pemkit import ErrorDistribution, GridSpec, PemModel, SyntheticDatasetConfig, TransitionMatrix
from pemkit import save_dataset, synthesize_dataset
from pemkit.car import GRAD_TOL
from pemkit.cli import EXIT_OK, main
from pemkit.model import PARAM_NAMES, load_model

MODEL = Path(__file__).resolve().parents[1] / "conformance" / "model.json"
REPORT_SHA256 = "b2037afe69fae1de0066707fb9fa53bf4ead145c86abc986301b592d66a3d6c9"
# TC3, seed 9: the lead vehicle hides the pedestrian for part of the run.
RUNLOG = Path("model__TC3") / "runs" / "run_000009.jsonl"
RUNLOG_SHA256 = "d272a4ae1667ad35c3a932ae534680a14051014fa8fd7ad9a08eeaef37745512"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_output_matches_golden_hashes(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--scenario", "TC1", "--scenario", "TC2", "--scenario", "TC3",
        "--model", str(MODEL), "--runs", "20", "--seed", "7", "--save-logs", "--out-dir", str(out),
    ])
    assert code == EXIT_OK
    assert sha256(out / "report.json") == REPORT_SHA256
    assert sha256(out / RUNLOG) == RUNLOG_SHA256


# 32 conditions: 4 levels x 2 rings x 4 sectors.
LEARN_GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=4.0, max_radius_m=8.0)
LEARN_GRID_ARGS = ["--sector-deg", "90", "--ring-depth-m", "4", "--max-radius-m", "8"]
LEARN_COUNTS_SHA256 = "e14a6ebd71ba104d5b51e8af0027b37a199bcfa11b2b833ae6abc19887cfc5f5"
LEARNED_FIELDS = {
    "a01": (
        "0.5556656263 0.5518984127 0.5662240234 0.5614413379 0.5425766881 0.5521782062 0.560725473 "
        "0.5281892847 0.5652206978 0.5579193469 0.5561217882 0.5511199003 0.5710402543 0.557305256 "
        "0.5505348754 0.548089263 0.606295011 0.5780234155 0.5822974797 0.596442796 0.612256089 0.6001795946 "
        "0.5946781283 0.5998908256 0.5314767356 0.5274029146 0.5284946487 0.5204994829 0.5340226197 "
        "0.5429453591 0.5371902638 0.53047863"
    ),
    "a11": (
        "0.8584131464 0.8488737367 0.8280725448 0.7781009181 0.8934580697 0.8406780261 0.8299396825 "
        "0.8299184594 0.8328086737 0.8175032021 0.8942055927 0.8540546507 0.8579346087 0.8430294683 "
        "0.8604246588 0.844433174 0.7809173058 0.7689485921 0.8083141188 0.7942010475 0.8542377695 "
        "0.8349163056 0.8582790415 0.8730273815 0.8607867447 0.8259176368 0.8530538061 0.792008326 "
        "0.8579682822 0.8325480646 0.8696454497 0.7962715093"
    ),
    "mu_r": (
        "1.004608302 0.991818887 1.000526387 0.9917909943 1.007202115 1.010415789 0.9985704752 0.9802610914 "
        "1.000622737 1.016655743 1.007331462 0.9994077169 0.9951604649 0.996318295 1.018337549 0.9981562774 "
        "0.999315707 0.9929857864 0.9967603579 1.044094581 0.9858485852 1.004788538 0.9981813494 1.016428902 "
        "1.003107348 0.9879253671 0.9984961263 0.9962288311 0.994187445 1.006062642 1.005935082 1.007709276"
    ),
    "mu_theta": (
        "0.006255797148 -0.001354158242 0.004868126722 0.002417196703 -0.005698008345 0.00406497762 "
        "0.001567739071 -0.0002532504144 -0.003109203552 -0.003772535097 0.0007887111681 -0.0005897185757 "
        "0.002788585311 0.001113536739 -0.004145332708 0.001039894639 0.007326531384 0.0002126490286 "
        "-0.001357209138 -0.001637324914 -0.001317065542 0.001341237007 0.004739706009 6.539214233e-05 "
        "-0.006299403279 -0.0002525296298 0.0009794654223 -0.002724696773 0.008678457475 -0.003692368288 "
        "-0.003104000147 0.0005302056333"
    ),
    "sigma_r": (
        "0.04576343947 0.04990098564 0.04972924459 0.04730173001 0.05248963239 0.05246937464 0.05835338783 "
        "0.05474044196 0.04399044408 0.03879388668 0.0463997423 0.05206797646 0.05020425387 0.04814864999 "
        "0.0483031765 0.05622349532 0.04723374131 0.04748908874 0.05471215075 0.0290276488 0.04883449928 "
        "0.0503508854 0.05682644811 0.0522890978 0.05458242503 0.05045630455 0.05186122165 0.04973408449 "
        "0.05420330844 0.05837605 0.04802626871 0.04208095173"
    ),
    "sigma_theta": (
        "0.02023144603 0.02046957048 0.02087512682 0.02117384268 0.01672619726 0.0197858382 0.01811122 "
        "0.01942099694 0.01754547814 0.02217435549 0.02093572585 0.01697066035 0.0188314426 0.02037790874 "
        "0.01929637419 0.02047141479 0.01899287958 0.01721453289 0.009863262184 0.01412039765 0.02195582752 "
        "0.01840398779 0.01727641679 0.02022005305 0.01488472371 0.018846208 0.0195070532 0.02550928045 "
        "0.01804194102 0.01893378346 0.01759582415 0.01703253117"
    ),
    "rho": (
        "0.01482570145 0.1206645906 -0.01148215604 0.09762586533 0.02426932177 0.05934543512 0.0948682708 "
        "-0.07684430911 -0.002025637669 0.2141796887 0.1618481173 0.1189553512 -0.02467710429 0.0998676812 "
        "0.06761308187 0.121777261 -0.06272383571 0.05489073652 0.1438601103 0.1115121031 -0.03961540132 "
        "0.01199973011 0.1213155613 0.1740082231 0.05372106207 0.01590040382 0.1670343128 0.194085793 "
        "0.03677664666 0.190308417 0.1127460873 0.001251439163"
    ),
}


def learn_config() -> SyntheticDatasetConfig:
    truth = PemModel.uniform(LEARN_GRID, TransitionMatrix(0.6, 0.85), ErrorDistribution(1.0, 0.0, 0.05, 0.02, 0.1))
    return SyntheticDatasetConfig(
        true_model=truth, n_scenes=8, frames_per_scene=20, objects_per_scene=12,
        motion="constant_velocity", speed_mps=0.5, placement="uniform", seed=3,
    )


def test_learn_output_matches_golden_counts_and_fields(tmp_path):
    save_dataset(synthesize_dataset(learn_config()), tmp_path / "data.jsonl")
    model_path = tmp_path / "learned" / "model.json"
    code = main(["learn", "--dataset", str(tmp_path / "data.jsonl"), "--out", str(model_path), *LEARN_GRID_ARGS])
    assert code == EXIT_OK
    diagnostics = json.loads(model_path.with_suffix(".diagnostics.json").read_text())
    counts = {key: diagnostics[key] for key in ("coverage", "per_condition")}
    blob = json.dumps(counts, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == LEARN_COUNTS_SHA256
    model = load_model(model_path)
    for name in PARAM_NAMES:
        expected = np.array(LEARNED_FIELDS[name].split(), dtype=float)
        np.testing.assert_allclose(getattr(model, name), expected, rtol=GRAD_TOL, atol=0.0, err_msg=name)

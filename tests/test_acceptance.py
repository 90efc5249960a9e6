"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers when it holds.

Independent oracles live in this module and deliberately re-derive results
with different code than the library: exhaustive enumeration for the filter
and voting rules, loop-based recomputation for the metrics, and a frozen
expectation for the noisy mock produced by scripts/noise_recall_expectation.py
(which simulates the noise model without importing this package).
"""

import itertools
import os
import random
import time
from collections import Counter

import pytest

from confval.backend import (
    BackendConfig,
    MockBackend,
    MockBehavior,
    MockScript,
    truth_map,
)
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat, compress
from confval.constraints import ALL_SUBCATEGORIES, oracle_validate
from confval.errors import TokenBudgetExceededError
from confval.evaluation import (
    ConfusionMatrix,
    f1,
    macro_average,
    precision,
    recall,
    run_evaluation,
    run_sweep,
    scored_from,
)
from confval.misconfig_gen import (
    InjectedFault,
    Label,
    LabeledFile,
    build_dataset,
)
from confval.pipeline import PipelineSettings, Verdict, validate_file, vote
from confval.prompting import (
    ShotDatabase,
    build_prompt,
    enumerate_shot_combinations,
    estimate_tokens,
    fit_to_budget,
    shot_from_labeled,
)
from confval.responses import ValidationResponse, validate_response

from conftest import six_project_specs

# Frozen output of scripts/noise_recall_expectation.py (500k trials, seed 12345).
EXPECTED_NOISE_RECALL = 0.9969
NOISE_RATE = 0.2


def _pass(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE PASS: {name}{suffix}")


@pytest.fixture(scope="module")
def corpora():
    """Several seeded generation runs over the six demo projects, timed."""
    specs = six_project_specs()
    started = time.perf_counter()
    runs = []
    for round_index in range(4):
        for i, spec in enumerate(specs):
            seed = 1000 * round_index + i
            runs.append((spec, build_dataset(spec, rng=random.Random(seed))))
    elapsed = time.perf_counter() - started
    return {"runs": runs, "generation_seconds": elapsed}


def test_generation_soundness(corpora):
    started = time.perf_counter()
    checked = 0
    seen_subcats = set()
    for specs, split in corpora["runs"]:
        for labeled in split.shot_pool + split.eval_set:
            if labeled.label is not Label.MISCONFIG:
                continue
            found = oracle_validate(labeled.file, specs)
            assert len(found) == 1, f"expected one violation, got {found}"
            assert found[0].parameter == labeled.injected.parameter
            assert found[0].subcategory is labeled.injected.subcategory
            seen_subcats.add(labeled.injected.subcategory)
            checked += 1
    verify_seconds = time.perf_counter() - started
    total_seconds = corpora["generation_seconds"] + verify_seconds
    assert checked >= 1000
    assert seen_subcats == set(ALL_SUBCATEGORIES), "all 15 sub-categories covered"
    assert total_seconds < 10.0
    _pass(
        "generation soundness",
        f"{checked} misconfigs, 15/15 sub-categories, {total_seconds:.2f}s",
    )


def test_validconfig_soundness(corpora):
    checked = 0
    for specs, split in corpora["runs"]:
        for labeled in split.shot_pool + split.eval_set:
            if labeled.label is Label.VALID:
                assert oracle_validate(labeled.file, specs) == []
                checked += 1
    assert checked >= 1000
    _pass("validconfig soundness", f"{checked} valid files, zero violations")


def test_filter_rules_exhaustive():
    def oracle_rules(has_error, params, reasons):
        r1 = has_error or (not params and not reasons)
        r2 = (not has_error) or (bool(params) and bool(reasons))
        r3 = (not has_error) or (len(params) == len(reasons))
        r4 = len(params) == len(set(params))
        return r1 and r2 and r3 and r4

    names = ["a", "b", "c"]
    cases = 0
    for has_error in (False, True):
        for n_params in range(4):
            for params in itertools.product(names, repeat=n_params):
                for n_reasons in range(4):
                    reasons = tuple(f"reason {i}" for i in range(n_reasons))
                    response = ValidationResponse(has_error, params, reasons)
                    accepted = validate_response(response) is None
                    assert accepted == oracle_rules(has_error, params, reasons), (
                        has_error,
                        params,
                        reasons,
                    )
                    cases += 1
    _pass("filter rules", f"{cases} enumerated response shapes match R1-R4")


def _brute_force_winner(keys):
    """Independent restatement of the voting rule."""
    counts = Counter(keys)
    best = max(counts.values())
    tied = [k for k, c in counts.items() if c == best]
    fewest = min(len(k[1]) for k in tied)
    tied = [k for k in tied if len(k[1]) == fewest]
    return sorted(tied, key=lambda k: k[1])[0]


def _response_for(key):
    has_error, params = key
    if not has_error:
        return ValidationResponse(False, (), ())
    return ValidationResponse(True, params, tuple(f"reason {p}" for p in params))


def test_voting_permutation_invariance_and_ties():
    names = ("a", "b", "c")
    keys = [(False, ())] + [
        (True, combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(names, size)
    ]

    rng = random.Random(2024)
    for _ in range(10_000):
        multiset = [rng.choice(keys) for _ in range(rng.randint(1, 10))]
        responses = [_response_for(k) for k in multiset]
        shuffled = list(responses)
        rng.shuffle(shuffled)
        a, b = vote(responses), vote(shuffled)
        assert (a.canonical_key, a.tally, a.reasons) == (b.canonical_key, b.tally, b.reasons)

    tie_cases = 0
    for size in range(1, 7):
        for multiset in itertools.combinations_with_replacement(keys, size):
            responses = [_response_for(k) for k in multiset]
            assert vote(responses).canonical_key == _brute_force_winner(multiset)
            tie_cases += 1
    _pass(
        "voting",
        f"10000 permutation checks, {tie_cases} exhaustive multisets up to 6 voters",
    )


def test_metrics_against_brute_force():
    rng = random.Random(99)
    param_counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    oracle_counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}

    for index in range(1000):
        entry_count = rng.randint(3, 20)
        names = [f"p{i}" for i in range(entry_count)]
        injected = rng.choice(names) if rng.random() < 0.6 else None
        entries = tuple(ConfigEntry(n, "1") for n in names)
        file = ConfigFile(f"proj{index % 7}", "1.0", ConfigFormat.XML, entries)
        if injected:
            subcategory = ALL_SUBCATEGORIES[index % 15]
            truth = LabeledFile(
                file, Label.MISCONFIG, InjectedFault(injected, subcategory, "reason"), bucket=subcategory
            )
        else:
            truth = LabeledFile(file, Label.VALID)
        flagged = {n for n in names if rng.random() < 0.2}
        if rng.random() < 0.1:
            flagged.add("phantom.name")
        key = (bool(flagged), tuple(sorted(flagged)))
        verdict = Verdict(
            key,
            1,
            1,
            tuple(f"r {p}" for p in key[1]),
            (),
            target_key=file.content_key(),
        )

        param_cm = scored_from(verdict, truth).param_cm
        for cell in param_counts:
            param_counts[cell] += getattr(param_cm, cell)

        # brute-force re-derivation straight from the definitions
        for name in names + (["phantom.name"] if "phantom.name" in flagged else []):
            in_file = name in names
            is_injected = injected is not None and name == injected
            is_flagged = name in flagged
            if not in_file:
                oracle_counts["fp"] += 1
            elif is_injected and is_flagged:
                oracle_counts["tp"] += 1
            elif is_injected:
                oracle_counts["fn"] += 1
            elif is_flagged:
                oracle_counts["fp"] += 1
            else:
                oracle_counts["tn"] += 1

    total_param = ConfusionMatrix(**param_counts)
    assert (total_param.tp, total_param.fp, total_param.tn, total_param.fn) == (
        oracle_counts["tp"],
        oracle_counts["fp"],
        oracle_counts["tn"],
        oracle_counts["fn"],
    )
    tp, fp, fn = oracle_counts["tp"], oracle_counts["fp"], oracle_counts["fn"]
    expected_p = tp / (tp + fp) if tp + fp else 0.0
    expected_r = tp / (tp + fn) if tp + fn else 0.0
    expected_f1 = (
        2 * expected_p * expected_r / (expected_p + expected_r) if expected_p + expected_r else 0.0
    )
    assert abs(precision(total_param) - expected_p) < 1e-12
    assert abs(recall(total_param) - expected_r) < 1e-12
    assert abs(f1(total_param) - expected_f1) < 1e-12

    values = [random.Random(5).random() for _ in range(11)]
    assert abs(macro_average(values) - sum(values) / len(values)) < 1e-12
    _pass("metrics oracle", "1000 fixtures equal brute-force within 1e-12")


@pytest.fixture(scope="module")
def pipeline_fixture(request):
    datasets = request.getfixturevalue("six_datasets")
    splits = {project: split for project, (_, split) in datasets.items()}
    shot_db = ShotDatabase(
        shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool
    )
    truth = truth_map(splits.values())
    return splits, shot_db, truth


def test_perfect_mock_identity(pipeline_fixture):
    splits, shot_db, truth = pipeline_fixture
    started = time.perf_counter()
    backend = MockBackend(
        MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth),
        BackendConfig(max_parallel=8),
    )
    report = run_evaluation(splits, backend, shot_db, PipelineSettings(seed=17), jobs=4)
    elapsed = time.perf_counter() - started
    assert report.failures == ()
    assert len(report.per_project) == 6
    for project, levels in report.per_project.items():
        for level in ("file", "parameter"):
            assert levels[level]["precision"] == 1.0, (project, level)
            assert levels[level]["recall"] == 1.0, (project, level)
            assert levels[level]["f1"] == 1.0, (project, level)
    assert report.macro["file"]["f1"] == 1.0
    assert report.macro["parameter"]["f1"] == 1.0
    assert all(value == 1.0 for value in report.micro_f1_by_subcategory.values())
    assert elapsed < 60.0
    _pass(
        "perfect-mock identity",
        f"{report.files_scored} files across 6 projects, F1=1.0, {elapsed:.1f}s",
    )


def test_noisy_mock_calibration(pipeline_fixture):
    splits, shot_db, truth = pipeline_fixture
    backend = MockBackend(
        MockScript(
            MockBehavior.NOISE_WITH_RATE,
            truth=truth,
            noise_rate=NOISE_RATE,
            seed=424242,
        ),
        BackendConfig(max_parallel=8),
    )
    report = run_evaluation(splits, backend, shot_db, PipelineSettings(seed=31), jobs=4)
    assert report.failures == ()
    assert report.files_scored >= 500

    tp = sum(report.per_project[p]["parameter"]["tp"] for p in report.per_project)
    fn = sum(report.per_project[p]["parameter"]["fn"] for p in report.per_project)
    pooled_recall = tp / (tp + fn)
    assert abs(pooled_recall - EXPECTED_NOISE_RECALL) <= 0.05, (
        f"recall {pooled_recall:.4f} vs expected {EXPECTED_NOISE_RECALL:.4f}"
    )
    _pass(
        "noisy-mock calibration",
        f"recall {pooled_recall:.4f} vs expected {EXPECTED_NOISE_RECALL:.4f} "
        f"over {tp + fn} misconfig files",
    )


def test_token_budget_fuzz(pipeline_fixture):
    _, shot_db, _ = pipeline_fixture
    pool = shot_db.pool("stormdb", Label.VALID) + shot_db.pool("stormdb", Label.MISCONFIG)
    rng = random.Random(777)
    aborts = 0
    fitted_count = 0
    for _ in range(1000):
        entry_count = rng.randint(1, 40)
        value_width = rng.randint(0, 60)
        entries = tuple(
            ConfigEntry(f"fuzz.param.{i}", "v" * value_width) for i in range(entry_count)
        )
        target = ConfigFile("stormdb", "2.1.0", ConfigFormat.XML, entries)
        shots = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 5))]
        limit = rng.randint(5, 4000)
        prompt = build_prompt(target, shots)
        minimum = build_prompt(compress(target), []).token_estimate
        try:
            fitted = fit_to_budget(prompt, limit)
        except TokenBudgetExceededError:
            aborts += 1
            assert minimum > limit, "abort despite a fitting compressed prompt"
            continue
        fitted_count += 1
        assert fitted.token_estimate <= limit
        assert minimum <= limit, "returned a prompt although the minimum cannot fit"
    assert aborts > 0 and fitted_count > 0
    _pass("token budget", f"{fitted_count} fitted / {aborts} aborted, all within limits")


def test_sweep_shape(pipeline_fixture):
    combos = enumerate_shot_combinations(5)
    assert len(combos) == 21
    assert len({(c.valid_count, c.misconfig_count) for c in combos}) == 21
    assert all(c.total <= 5 for c in combos)

    splits, shot_db, truth = pipeline_fixture
    project = "tinyreg"
    tiny = {project: type(splits[project])(splits[project].shot_pool, splits[project].eval_set[:2])}
    backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
    reports = run_sweep(
        tiny, backend, shot_db, PipelineSettings(num_queries=1, seed=3), max_shots=5
    )
    assert len(reports) == 21
    _pass("sweep shape", "21 shot combinations enumerated and executed")


@pytest.mark.skipif(
    os.environ.get("CONFVAL_LIVE_SMOKE") != "1",
    reason="live smoke test runs only with CONFVAL_LIVE_SMOKE=1 and real credentials",
)
def test_live_smoke(pipeline_fixture):
    from confval.backend import HttpBackend

    splits, shot_db, _ = pipeline_fixture
    config = BackendConfig(
        endpoint=os.environ["CONFVAL_ENDPOINT"],
        model_id=os.environ.get("CONFVAL_MODEL", "gpt-4"),
    )
    backend = HttpBackend(config)
    split = splits["stormdb"]
    one_valid = next(lf for lf in split.eval_set if lf.label is Label.VALID)
    one_bad = next(lf for lf in split.eval_set if lf.label is Label.MISCONFIG)
    for labeled in (one_valid, one_bad):
        verdict = validate_file(
            labeled.file, backend, shot_db, PipelineSettings(num_queries=2, seed=1)
        )
        assert isinstance(verdict.hasError, bool)
        assert isinstance(verdict.err_parameters, tuple)
    _pass("live smoke", "schema-valid verdicts from the real backend")


def test_always_valid_mock_has_zero_recall(pipeline_fixture):
    """Companion sanity check: the AlwaysValid mock can never find anything."""
    splits, shot_db, _ = pipeline_fixture
    project = "tinyreg"
    tiny = {project: splits[project]}
    backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID))
    report = run_evaluation(
        tiny, backend, shot_db, PipelineSettings(num_queries=2, seed=3)
    )
    params = report.per_project[project]["parameter"]
    assert params["tp"] == 0 and params["fp"] == 0
    assert report.per_project[project]["file"]["recall"] == 0.0

import hashlib
import json
import random
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confval.evaluation
import confval.prompting
from confval.backend import Backend, BackendConfig, MockBackend, MockBehavior, MockScript, truth_map
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat
from confval.constraints import Subcategory
from confval.errors import BackendError, SpecError
from confval.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    bucket_by_param_count,
    bucket_label,
    build_report,
    f1,
    macro_average,
    micro_f1_by_subcategory,
    precision,
    recall,
    report_csv_tables,
    run_evaluation,
    run_sweep,
    scored_from,
)
from confval.misconfig_gen import InjectedFault, Label, LabeledFile, build_dataset
from confval.pipeline import PipelineSettings, Verdict
from confval.prompting import SelectionStrategy, ShotDatabase, shot_db_from, shot_from_labeled

from conftest import Counting, demo_spec_set


def labeled_file(injected=None, names=None, project="demo"):
    names = names or tuple(f"p{i}" for i in range(8))
    entries = tuple(ConfigEntry(n, "1") for n in names)
    file = ConfigFile(project, "1.0", ConfigFormat.XML, entries)
    if injected is None:
        return LabeledFile(file, Label.VALID, bucket=Subcategory.RANGE_PORT)
    fault = InjectedFault(injected, Subcategory.RANGE_PORT, "too large")
    return LabeledFile(file, Label.MISCONFIG, fault, bucket=Subcategory.RANGE_PORT)


def verdict_flagging(flags, truth=None):
    key = (bool(flags), tuple(sorted(set(flags))))
    reasons = tuple(f"reason for {p}" for p in key[1])
    return Verdict(
        canonical_key=key,
        tally=1,
        total_votes=1,
        reasons=reasons,
        all_responses=(),
        target_key=truth.file.content_key() if truth else "",
    )


CELLS = ("tp", "fp", "tn", "fn")


class TestScoreFile:
    def test_exact_hit(self):
        truth = labeled_file("p3")
        scored = scored_from(verdict_flagging(["p3"], truth), truth)
        assert scored.file_cm == ConfusionMatrix(tp=1)
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == (1, 0, 7, 0)

    def test_detected_but_mislocalized(self):
        truth = labeled_file("p3")
        scored = scored_from(verdict_flagging(["p5"], truth), truth)
        assert scored.file_cm == ConfusionMatrix(tp=1)  # file level only asks whether an error was found
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == (0, 1, 6, 1)

    def test_false_alarm_on_valid_file(self):
        truth = labeled_file()
        scored = scored_from(verdict_flagging(["p1"], truth), truth)
        assert scored.file_cm == ConfusionMatrix(fp=1)
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == (0, 1, 7, 0)

    def test_missed_misconfiguration(self):
        truth = labeled_file("p3")
        scored = scored_from(verdict_flagging([], truth), truth)
        assert scored.file_cm == ConfusionMatrix(fn=1)
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == (0, 0, 7, 1)

    def test_valid_file_clean_verdict(self):
        truth = labeled_file()
        scored = scored_from(verdict_flagging([], truth), truth)
        assert scored.file_cm == ConfusionMatrix(tn=1)
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == (0, 0, 8, 0)

    def test_phantom_parameter_counts_as_fp(self):
        truth = labeled_file("p3")
        scored = scored_from(verdict_flagging(["p3", "not.in.file"], truth), truth)
        assert scored.file_cm == ConfusionMatrix(tp=1)
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == (1, 1, 7, 0)

    def test_identity_mismatch_rejected(self):
        truth = labeled_file("p3")
        other = labeled_file("p3", project="somewhere-else")
        verdict = verdict_flagging(["p3"], other)
        with pytest.raises(ValueError, match="correspond"):
            scored_from(verdict, truth)

    def test_conservation(self):
        truth = labeled_file("p3")
        params = scored_from(verdict_flagging(["p3", "ghost"], truth), truth).param_cm
        assert params.total == len(truth.file.entries) + 1  # entries plus the phantom

    @pytest.mark.parametrize(
        "injected, flags, expected",
        [
            ("p3", ["p3"], (1, 0, 7, 0)),
            ("p3", ["p3", "p5"], (1, 1, 6, 0)),
            ("p3", [], (0, 0, 7, 1)),
            # a flagged name that is not in the file
            ("p3", ["ghost"], (0, 1, 7, 1)),
            ("p3", ["p3", "ghost", "p0"], (1, 2, 6, 0)),
            # an injected parameter missing from the file: no cell of its own,
            # and flagging it is a false alarm like any other phantom
            ("gone", ["gone"], (0, 1, 8, 0)),
            ("gone", [], (0, 0, 8, 0)),
            # a valid file with flags
            (None, ["p1", "p2"], (0, 2, 6, 0)),
            (None, ["p1", "ghost"], (0, 2, 7, 0)),
            (None, [], (0, 0, 8, 0)),
        ],
    )
    def test_parameter_cells_match_the_per_entry_count(self, injected, flags, expected):
        names = tuple(f"p{i}" for i in range(8))
        if injected in names or injected is None:
            truth = labeled_file(injected, names)
        else:
            # LabeledFile refuses such a fault, so scored_from sees it only
            # through a stand-in; it must still not count a cell for it
            file = labeled_file(None, names).file
            fault = InjectedFault(injected, Subcategory.RANGE_PORT, "too large")
            truth = SimpleNamespace(file=file, label=Label.MISCONFIG, injected=fault)
        verdict = verdict_flagging(flags, truth)
        scored = scored_from(verdict, truth)
        params = scored.param_cm
        assert (params.tp, params.fp, params.tn, params.fn) == expected
        assert (params.tp, params.fp, params.tn, params.fn) == per_entry_cells(verdict, truth)
        if injected is None:
            assert scored.file_cm == ConfusionMatrix(**{"fp" if flags else "tn": 1})
        else:
            assert scored.file_cm == ConfusionMatrix(**{"tp" if flags else "fn": 1})


def per_entry_cells(verdict, truth):
    """scored_from's parameter cells counted entry by entry, as it once did:
    (tp, fp, tn, fn)."""
    flagged = set(verdict.err_parameters)
    injected = truth.injected.parameter if truth.label is Label.MISCONFIG else None
    counts = dict.fromkeys(CELLS, 0)
    for entry in truth.file.entries:
        if entry.name == injected:
            counts["tp" if entry.name in flagged else "fn"] += 1
        else:
            counts["fp" if entry.name in flagged else "tn"] += 1
    counts["fp"] += len(flagged - {e.name for e in truth.file.entries})
    return counts["tp"], counts["fp"], counts["tn"], counts["fn"]


class TestMetricFormulas:
    def test_worked_example(self):
        cm = ConfusionMatrix(tp=3, fp=1, tn=0, fn=1)
        assert precision(cm) == 0.75
        assert recall(cm) == 0.75
        assert f1(cm) == 0.75

    def test_zero_denominators_yield_zero(self):
        cm = ConfusionMatrix()
        assert precision(cm) == 0.0
        assert recall(cm) == 0.0
        assert f1(cm) == 0.0

    def test_against_brute_force(self):
        rng = random.Random(4)
        for _ in range(300):
            cm = ConfusionMatrix(
                tp=rng.randint(0, 20),
                fp=rng.randint(0, 20),
                tn=rng.randint(0, 20),
                fn=rng.randint(0, 20),
            )
            p = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
            r = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
            expected_f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(precision(cm) - p) < 1e-12
            assert abs(recall(cm) - r) < 1e-12
            assert abs(f1(cm) - expected_f1) < 1e-12

    def test_macro_average(self):
        assert macro_average([0.6, 0.8]) == pytest.approx(0.7)
        assert macro_average([0.42]) == 0.42
        rng = random.Random(1)
        values = [rng.random() for _ in range(9)]
        assert macro_average(values) == pytest.approx(sum(values) / 9, abs=1e-12)
        # the sum is exact, so ten tenths average to a tenth on every Python
        assert macro_average([0.1] * 10) == 0.1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), st.randoms(use_true_random=False))
    def test_macro_average_ignores_order(self, values, rng):
        shuffled = rng.sample(values, len(values))
        assert macro_average(shuffled).hex() == macro_average(values).hex()


class TestAggregation:
    def _scored(self, seed=0):
        rng = random.Random(seed)
        out = []
        for i in range(40):
            project = rng.choice(["alpha", "beta", "gamma"])
            # one size in each of three buckets
            names = tuple(f"p{n}" for n in range(rng.choice((3, 8, 40))))
            if rng.random() < 0.5:
                truth = labeled_file(f"p{rng.randrange(3)}", names, project=project)
            else:
                truth = labeled_file(names=names, project=project)
            flags = []
            if rng.random() < 0.7 and truth.injected:
                flags.append(truth.injected.parameter)
            if rng.random() < 0.2:
                flags.append(f"p{rng.randrange(8)}")
            out.append(scored_from(verdict_flagging(flags, truth), truth))
        return out

    def test_incremental_equals_batch(self):
        results = self._scored()
        report = build_report(results)
        assert list(report.per_project) == sorted({r.project for r in results})
        for project, levels in report.per_project.items():
            for level, matrix in (("file", "file_cm"), ("parameter", "param_cm")):
                incremental = dict.fromkeys(CELLS, 0)
                for r in results:
                    if r.project == project:
                        for cell in CELLS:
                            incremental[cell] += getattr(getattr(r, matrix), cell)
                assert {cell: levels[level][cell] for cell in CELLS} == incremental

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**16), st.randoms(use_true_random=False))
    def test_report_ignores_file_order(self, seed, rng):
        """Every table, and the order of its rows, is the same for the scored
        files in any order."""
        results = self._scored(seed)
        shuffled = rng.sample(results, len(results))
        assert json.dumps(build_report(shuffled).to_dict()) == json.dumps(build_report(results).to_dict())

    def test_micro_pools_before_dividing(self):
        skew_hit = labeled_file("p0", project="alpha")
        skew_miss = labeled_file("p0", project="beta")
        results = [
            scored_from(verdict_flagging(["p0"], skew_hit), skew_hit),
            scored_from(verdict_flagging([], skew_miss), skew_miss),
        ]
        micro = micro_f1_by_subcategory(results)
        hit, miss = (r.param_cm for r in results)
        pooled = ConfusionMatrix(*(getattr(hit, cell) + getattr(miss, cell) for cell in CELLS))
        assert micro[Subcategory.RANGE_PORT.value] == pytest.approx(f1(pooled))
        per_project_mean = (1.0 + 0.0) / 2
        assert micro[Subcategory.RANGE_PORT.value] != per_project_mean

    def test_report_round_trips_through_json(self):
        report = build_report(self._scored(), failures=[{"project": "alpha", "error": "x"}])
        doc = json.loads(json.dumps(report.to_dict()))
        assert MetricsReport.from_dict(doc) == report

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: [doc],
            lambda doc: {**doc, "files_scored": True},
            lambda doc: {**doc, "failures": {}},
        ],
    )
    def test_from_dict_names_a_malformed_document(self, mutate):
        doc = build_report(self._scored()).to_dict()
        with pytest.raises(SpecError, match="must be a JSON"):
            MetricsReport.from_dict(mutate(doc))

    @pytest.mark.parametrize(
        "key", ["per_project", "macro", "micro_f1_by_subcategory", "f1_by_param_count", "files_scored"]
    )
    def test_from_dict_names_a_missing_key(self, key):
        doc = build_report(self._scored()).to_dict()
        del doc[key]
        with pytest.raises(SpecError, match=f"^report: missing key '{key}'$"):
            MetricsReport.from_dict(doc)

    def test_only_schema_version_and_failures_may_be_absent(self):
        report = build_report(self._scored())
        doc = report.to_dict()
        del doc["schema_version"], doc["failures"]
        assert MetricsReport.from_dict(doc) == report

    def test_empty_subcategory_absent(self):
        truth = labeled_file()
        results = [scored_from(verdict_flagging([], truth), truth)]
        assert micro_f1_by_subcategory(results) == {}


class TestBuckets:
    def test_labels(self):
        edges = (4, 8, 16, 32)
        assert bucket_label(3, edges) == "<=4"
        assert bucket_label(8, edges) == "5-8"
        assert bucket_label(9, edges) == "9-16"
        assert bucket_label(40, edges) == ">32"

    def test_uniform_files_fill_one_bucket(self):
        truth = labeled_file("p3")
        results = [scored_from(verdict_flagging(["p3"], truth), truth)] * 4
        buckets = bucket_by_param_count(results)
        assert list(buckets) == ["5-8"]

    def test_degrading_noise_gives_monotone_buckets(self):
        results = []
        for count, hit_rate in ((4, 1.0), (8, 0.5), (20, 0.0)):
            names = tuple(f"p{i}" for i in range(count))
            rng = random.Random(count)
            for _ in range(10):
                truth = labeled_file("p0", names=names)
                flags = ["p0"] if rng.random() < hit_rate else ["p1"]
                results.append(scored_from(verdict_flagging(flags, truth), truth))
        buckets = bucket_by_param_count(results)
        values = list(buckets.values())
        assert values == sorted(values, reverse=True)


@pytest.fixture
def echo_setup(spec_set, dataset):
    shot_db = ShotDatabase(shot_from_labeled(lf) for lf in dataset.shot_pool)
    backend = MockBackend(
        MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth_map([dataset]))
    )
    return {spec_set.project: dataset}, backend, shot_db


class TestRunEvaluation:
    def test_echo_mock_is_perfect(self, echo_setup):
        datasets, backend, shot_db = echo_setup
        report = run_evaluation(
            datasets, backend, shot_db, PipelineSettings(num_queries=2, seed=3)
        )
        macro = report.macro
        assert macro["file"]["f1"] == 1.0
        assert macro["parameter"]["f1"] == 1.0
        assert report.failures == ()
        assert report.files_scored == sum(len(d.eval_set) for d in datasets.values())
        assert all(value == 1.0 for value in report.micro_f1_by_subcategory.values())

    def test_parallel_jobs_agree_with_serial(self, echo_setup):
        datasets, _, shot_db = echo_setup

        def run(jobs):
            backend = MockBackend(
                MockScript(
                    MockBehavior.ECHO_GROUND_TRUTH,
                    truth=truth_map(list(datasets.values())),
                )
            )
            return run_evaluation(
                datasets, backend, shot_db, PipelineSettings(num_queries=1, seed=3), jobs=jobs
            )

        assert run(1).to_dict() == run(4).to_dict()

    def test_cosine_workers_build_each_index_once(self, six_datasets, monkeypatch):
        """Four workers rank against indexes built lazily on a fresh shot
        database: each is built once, and the report matches one worker's."""
        splits = {project: split for project, (_, split) in six_datasets.items()}
        builds = []

        class CountingIndex(confval.prompting.TfidfIndex):
            def __init__(self, docs):
                builds.append(docs)
                super().__init__(docs)

        monkeypatch.setattr(confval.prompting, "TfidfIndex", CountingIndex)

        def run(jobs):
            shot_db = ShotDatabase(
                shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool
            )
            backend = MockBackend(
                MockScript(
                    MockBehavior.NOISE_WITH_RATE,
                    truth=truth_map(splits.values()),
                    noise_rate=0.2,
                    seed=5,
                ),
                BackendConfig(max_parallel=jobs),
            )
            settings = PipelineSettings(seed=3, strategy=SelectionStrategy.COSINE_SIMILARITY)
            return run_evaluation(splits, backend, shot_db, settings, jobs=jobs).to_dict()

        serial = run(1)
        serial_builds = len(builds)
        builds.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
        try:
            parallel = run(4)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial
        assert len(builds) == serial_builds

    def test_a_random_run_builds_no_index(self, six_datasets, monkeypatch):
        """Only cosine selection ranks, so a random-strategy evaluation builds
        no TF-IDF index."""
        splits = {project: split for project, (_, split) in six_datasets.items()}
        builds = []

        class CountingIndex(confval.prompting.TfidfIndex):
            def __init__(self, docs):
                builds.append(docs)
                super().__init__(docs)

        monkeypatch.setattr(confval.prompting, "TfidfIndex", CountingIndex)
        shot_db = ShotDatabase(shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool)
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth_map(splits.values())))
        report = run_evaluation(splits, backend, shot_db, PipelineSettings(num_queries=1, seed=3))
        assert report.files_scored == sum(len(split.eval_set) for split in splits.values())
        assert builds == []

    def test_all_malformed_records_failures(self, echo_setup):
        datasets, _, shot_db = echo_setup
        backend = MockBackend(MockScript(MockBehavior.MALFORMED))
        report = run_evaluation(
            datasets, backend, shot_db, PipelineSettings(num_queries=1, seed=3)
        )
        assert report.files_scored == 0
        assert len(report.failures) == sum(len(d.eval_set) for d in datasets.values())
        assert all("ValidationFailedError" in f["error"] for f in report.failures)

    def test_csv_tables_render(self, echo_setup):
        datasets, backend, shot_db = echo_setup
        report = run_evaluation(
            datasets, backend, shot_db, PipelineSettings(num_queries=1, seed=3)
        )
        tables = report_csv_tables(report)
        assert set(tables) == {"per_project", "subcategory_f1", "param_count_f1"}
        assert "precision" in tables["per_project"].splitlines()[0]

    def test_sweep_has_21_combinations(self, echo_setup):
        datasets, backend, shot_db = echo_setup
        small = {
            project: type(split)(split.shot_pool, split.eval_set[:4])
            for project, split in datasets.items()
        }
        reports = run_sweep(
            small, backend, shot_db, PipelineSettings(num_queries=1, seed=3)
        )
        assert len(reports) == 21
        assert set(reports) == {
            f"{v}v{m}m" for n in range(6) for v, m in [(n - k, k) for k in range(n + 1)]
        }


# sha256 of run_evaluation's report JSON (sorted keys), then of its CSV tables
# in table-name order, over the six demo corpora with the 0.5-noise mock; its
# macro ratios are not 1.0, so a changed count, pooling or order shows
REPORT_DIGESTS = {
    SelectionStrategy.RANDOM: "f2598a0aaeffc1a400c9194430939e6b9074e756bee34c6e3a37d5e2b9e6c31e",
    SelectionStrategy.COSINE_SIMILARITY: "17f2375ce955000a9f8d34fc4a8a34b2d4d83c9e5043aef7d792aee1ca7ba283",
}


def noisy_six_evaluation(six_datasets, strategy, jobs):
    splits = {project: split for project, (_, split) in six_datasets.items()}
    truth = truth_map(splits.values())
    script = MockScript(MockBehavior.NOISE_WITH_RATE, truth=truth, noise_rate=0.5, seed=5)
    backend = MockBackend(script, BackendConfig(max_parallel=4))
    settings = PipelineSettings(seed=11, strategy=strategy)
    return run_evaluation(splits, backend, shot_db_from(splits.values()), settings, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("strategy", list(REPORT_DIGESTS))
def test_reports_are_pinned(six_datasets, strategy, jobs):
    report = noisy_six_evaluation(six_datasets, strategy, jobs)
    assert report.macro["file"]["f1"] < 0.95
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    tables = report_csv_tables(report)
    for name in sorted(tables):
        digest.update(tables[name].encode())
    assert digest.hexdigest() == REPORT_DIGESTS[strategy]


def test_same_subcategory_scores_every_file(six_datasets):
    """No project's shot pool holds a misconfig shot of every sub-category,
    so at 1v3 the other misconfig shots fill in and no file fails."""
    report = noisy_six_evaluation(six_datasets, SelectionStrategy.SAME_SUBCATEGORY, 2)
    assert report.failures == ()
    eval_files = sum(len(split.eval_set) for _, split in six_datasets.values())
    assert report.files_scored == eval_files == 586


# --- concurrency as a property ---


class Failing(Backend):
    """Raises a BackendError on each call whose (fingerprint, call index)
    pair hashes below rate under salt, after the inner backend has answered
    it. The index is taken and the inner call made under one lock, so the
    index is the one the inner mock used for the same call."""

    def __init__(self, inner: Backend, salt: int, rate: float):
        self.inner = inner
        self.config = inner.config
        self.salt = salt
        self.rate = rate
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}

    def query(self, prompt) -> str:
        fingerprint = prompt.fingerprint
        with self._lock:
            index = self._calls.get(fingerprint, 0)
            self._calls[fingerprint] = index + 1
            text = self.inner.query(prompt)
        digest = hashlib.sha256(f"{self.salt}:{fingerprint}:{index}".encode("utf-8")).digest()
        if digest[0] < 256 * self.rate:
            raise BackendError(f"scripted failure on call {index}", "transport", retryable=False)
        return text


@pytest.fixture(scope="module")
def two_projects():
    """Two small corpora, one XML and one INI: (splits, shot database)."""
    splits = {}
    for i, spec in enumerate(
        [demo_spec_set("stormdb", "2.1.0"), demo_spec_set("cachefly", "5.0.1", ConfigFormat.INI)]
    ):
        split = build_dataset(spec, rng=random.Random(60 + i))
        splits[spec.project] = replace(split, eval_set=split.eval_set[::8])
    shot_db = ShotDatabase(shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool)
    return splits, shot_db


def evaluate_recorded(splits, shot_db, backend, pipeline_settings, jobs):
    """run_evaluation's report and every file's Verdict.to_report, by content key."""
    verdicts = {}
    validate_file = confval.evaluation.validate_file

    def recording(target, *args, **kwargs):
        verdict = validate_file(target, *args, **kwargs)
        verdicts[target.content_key()] = verdict.to_report(target.content_key())
        return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confval.evaluation, "validate_file", recording)
        report = run_evaluation(splits, backend, shot_db, pipeline_settings, jobs=jobs)
    return report.to_dict(), verdicts


class TestConcurrencyProperty:
    @settings(max_examples=20, deadline=None)
    # instant requests after a backend's first wave are asked on the file workers'
    # own threads, so several callers share the permits there
    @example(
        jobs=4, max_parallel=1, behavior=MockBehavior.NOISE_WITH_RATE, noise_rate=0.5,
        delay=0.0, salt=7, fault_rate=0.1, seed=1,
    )
    @example(
        jobs=4, max_parallel=2, behavior=MockBehavior.NOISE_WITH_RATE, noise_rate=0.2,
        delay=0.0, salt=11, fault_rate=0.3, seed=2,
    )
    @given(
        jobs=st.integers(1, 4),
        max_parallel=st.integers(1, 4),
        behavior=st.sampled_from(list(MockBehavior)),
        noise_rate=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        delay=st.floats(0.0, 0.001),
        salt=st.integers(0, 2**16),
        fault_rate=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 3),
    )
    def test_jobs_and_parallelism_change_nothing_but_timing(
        self, two_projects, jobs, max_parallel, behavior, noise_rate, delay, salt, fault_rate, seed
    ):
        """Any --jobs and max_parallel keep requests in flight within
        max_parallel and give the report and per-file verdicts of one file
        at a time over one request at a time."""
        splits, shot_db = two_projects
        script = MockScript(behavior, truth=truth_map(splits.values()), noise_rate=noise_rate, seed=seed)
        pipeline_settings = PipelineSettings(seed=seed)

        def backend(parallel):
            return Failing(MockBackend(script, BackendConfig(max_parallel=parallel)), salt, fault_rate)

        expected = evaluate_recorded(splits, shot_db, backend(1), pipeline_settings, 1)
        counting = Counting(backend(max_parallel), delay)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            got = evaluate_recorded(splits, shot_db, counting, pipeline_settings, jobs)
        finally:
            sys.setswitchinterval(interval)
        assert counting.peak <= max_parallel
        assert got == expected


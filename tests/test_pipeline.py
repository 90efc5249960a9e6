import random

import pytest

import confval.pipeline
import confval.prompting
from hypothesis import given, settings
from hypothesis import strategies as st

from confval.backend import (
    MALFORMED_TEXT,
    BackendConfig,
    MockBackend,
    MockBehavior,
    MockScript,
    prompt_fingerprint,
    truth_map,
)
from confval.errors import ValidationFailedError
from confval.misconfig_gen import Label
from confval.pipeline import PipelineSettings, Verdict, validate_file, vote
from confval.prompting import ShotCombination, ShotDatabase, build_prompt, shot_from_labeled
from confval.responses import ValidationResponse, misconfig_answer, valid_answer


def flagging(*params):
    return ValidationResponse(True, tuple(params), tuple(f"reason {p}" for p in params))


class TestVote:
    def test_unanimous(self):
        verdict = vote([flagging("p")] * 10)
        assert verdict.canonical_key == (True, ("p",))
        assert verdict.tally == 10
        assert verdict.total_votes == 10

    def test_majority(self):
        verdict = vote([flagging("a")] * 6 + [valid_answer()] * 4)
        assert verdict.canonical_key == (True, ("a",))
        assert verdict.tally == 6
        assert verdict.total_votes == 10

    def test_tie_prefers_fewer_parameters(self):
        verdict = vote([flagging("a")] * 5 + [valid_answer()] * 5)
        assert verdict.canonical_key == (False, ())
        assert verdict.reasons == ()

    def test_tie_between_single_flags_is_lexicographic(self):
        verdict = vote([flagging("b"), flagging("a")])
        assert verdict.canonical_key == (True, ("a",))

    def test_key_ignores_parameter_order_and_duplicates(self):
        one = ValidationResponse(True, ("b", "a"), ("x", "y"))
        two = ValidationResponse(True, ("a", "b"), ("p", "q"))
        verdict = vote([one, two])
        assert verdict.canonical_key == (True, ("a", "b"))
        assert verdict.tally == 2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            vote([])

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                st.just(valid_answer()),
                st.builds(
                    flagging,
                    st.sampled_from(["a", "b", "c"]),
                ),
                st.just(flagging("a", "b")),
            ),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, responses, rng):
        shuffled = list(responses)
        rng.shuffle(shuffled)
        left, right = vote(responses), vote(shuffled)
        assert left.canonical_key == right.canonical_key
        assert left.tally == right.tally
        assert left.reasons == right.reasons


class TestSelectReasons:
    def test_all_identical(self):
        responses = [ValidationResponse(True, ("p",), ("port out of range",))] * 4
        verdict = vote(responses)
        assert verdict.reasons == ("port out of range",)

    def test_dominant_cluster_wins(self):
        reasons = ["port out of range", "port value out of range", "file missing"]
        responses = [ValidationResponse(True, ("p",), (r,)) for r in reasons]
        verdict = vote(responses)
        assert verdict.reasons[0] in reasons[:2]

    def test_reasons_track_their_parameter(self):
        responses = [
            ValidationResponse(True, ("a", "b"), ("a is broken", "b is broken")),
            ValidationResponse(True, ("b", "a"), ("b is broken", "a is broken")),
        ]
        verdict = vote(responses)
        assert verdict.canonical_key == (True, ("a", "b"))
        assert verdict.reasons == ("a is broken", "b is broken")

    def test_only_winning_key_responses_contribute(self):
        winners = [ValidationResponse(True, ("a",), ("real reason",))] * 3
        loser = ValidationResponse(True, ("z",), ("irrelevant",))
        verdict = vote(winners + [loser])
        assert verdict.reasons == ("real reason",)


class TestVerdict:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict((False, ()), 1, 1, ("why",), ())
        with pytest.raises(ValueError):
            Verdict((True, ("p",)), 2, 1, ("why",), ())

    def test_report_shape(self):
        verdict = vote([flagging("p")] * 3)
        report = verdict.to_report("conf/site.xml")
        assert set(report) == {
            "target",
            "hasError",
            "errParameters",
            "reasons",
            "tally",
            "total_votes",
            "discarded_count",
        }


@pytest.fixture
def corpus(spec_set, dataset):
    shot_db = ShotDatabase(shot_from_labeled(lf) for lf in dataset.shot_pool)
    truth = truth_map([dataset])
    return dataset, shot_db, truth


def first_eval(dataset, label):
    return next(lf for lf in dataset.eval_set if lf.label is label)


class TestValidateFile:
    def test_echo_mock_flags_injected_parameter(self, corpus):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert verdict.tally == 10
        assert verdict.total_votes == 10
        assert verdict.reasons == (target.injected.reason,)

    def test_fitting_prompt_is_built_once(self, corpus, monkeypatch):
        dataset, shot_db, _ = corpus
        calls = []
        original = confval.prompting.build_prompt

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(confval.prompting, "build_prompt", counting)
        monkeypatch.setattr(confval.pipeline, "build_prompt", counting)
        backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID))
        for labeled in dataset.eval_set[:3]:
            validate_file(labeled.file, backend, shot_db, PipelineSettings(seed=5))
        assert len(calls) == 3

    def test_always_valid_mock_on_valid_file(self, corpus):
        dataset, shot_db, _ = corpus
        target = first_eval(dataset, Label.VALID)
        backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID))
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        assert verdict.hasError is False
        assert verdict.reasons == ()

    def test_retry_after_malformed_responses(self, corpus):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        settings = PipelineSettings(
            num_queries=1, retry_bound=3, seed=5, combination=ShotCombination(0, 0)
        )
        prompt = build_prompt(target.file, [], settings.question_template)
        fp = prompt_fingerprint(prompt.text)
        script = MockScript(
            MockBehavior.ECHO_GROUND_TRUTH,
            truth=truth,
            responses={(fp, 0): MALFORMED_TEXT, (fp, 1): MALFORMED_TEXT},
        )
        backend = MockBackend(script)
        verdict = validate_file(target.file, backend, shot_db, settings)
        assert verdict.hasError is True
        assert verdict.discarded_count == 2
        assert backend.total_calls == 3

    def test_all_slots_exhausted_is_an_error(self, corpus):
        dataset, shot_db, _ = corpus
        target = first_eval(dataset, Label.VALID)
        backend = MockBackend(MockScript(MockBehavior.MALFORMED))
        with pytest.raises(ValidationFailedError):
            validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        # one initial round plus three retry rounds per slot
        assert backend.total_calls == 40

    def test_noise_deterministic_across_runs(self, corpus):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)

        def run(parallel):
            script = MockScript(
                MockBehavior.NOISE_WITH_RATE, truth=truth, noise_rate=0.5, seed=99
            )
            backend = MockBackend(script, BackendConfig(max_parallel=parallel))
            return validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))

        first, second = run(1), run(1)
        assert first.canonical_key == second.canonical_key
        assert first.tally == second.tally
        assert sorted(r.canonical_key() for r in first.all_responses) == sorted(
            r.canonical_key() for r in second.all_responses
        )

    def test_noise_independent_of_parallelism(self, corpus):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)

        def run(parallel):
            script = MockScript(
                MockBehavior.NOISE_WITH_RATE, truth=truth, noise_rate=0.4, seed=123
            )
            backend = MockBackend(script, BackendConfig(max_parallel=parallel))
            return validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))

        sequential, parallel = run(1), run(8)
        assert sequential.canonical_key == parallel.canonical_key
        assert sequential.tally == parallel.tally

    def test_verdict_carries_target_identity(self, corpus):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        assert verdict.target_key == target.file.content_key()

    def test_diff_validated_as_snippet(self, corpus):
        from confval.config_model import ConfigDiff, diff_to_snippet
        from confval.responses import misconfig_answer

        dataset, shot_db, truth = corpus
        base = first_eval(dataset, Label.MISCONFIG)
        changed = (base.file.entries[0],)
        diff = ConfigDiff(base.file, changed, ())
        snippet = diff_to_snippet(diff)
        truth = dict(truth)
        truth[snippet.content_key()] = misconfig_answer(changed[0].name, "bad change").to_json()
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
        verdict = validate_file(diff, backend, shot_db, PipelineSettings(seed=5))
        assert verdict.canonical_key == (True, (changed[0].name,))
        assert verdict.target_key == snippet.content_key()

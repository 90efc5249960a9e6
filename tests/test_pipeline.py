import functools
import itertools
import json
import random
from collections import Counter

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
from confval.misconfig_gen import Label, build_dataset
from confval.pipeline import PipelineSettings, Verdict, _settling_wave, validate_file, vote
from confval.prompting import ShotCombination, ShotDatabase, build_prompt, shot_from_labeled
from confval.responses import ValidationResponse, valid_answer

from conftest import Counting, demo_spec_set


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

    def test_tied_reason_clusters_ignore_response_order(self):
        # a 2-2 split between dissimilar reasons: two clusters of equal size
        a = ValidationResponse(True, ("p",), ("port exceeds range",))
        b = ValidationResponse(True, ("p",), ("value is not numeric",))
        chosen = {vote(list(order)).reasons for order in itertools.permutations([a, a, b, b])}
        assert len(chosen) == 1

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


@pytest.fixture
def waves(monkeypatch):
    """The size of every query_batch call validate_file makes."""
    sizes = []
    original = confval.pipeline.query_batch

    def counting(backend, prompt, count):
        sizes.append(count)
        return original(backend, prompt, count)

    monkeypatch.setattr(confval.pipeline, "query_batch", counting)
    return sizes


def every_open_slot(tally, open_slots):
    """A wave rule that never stops early: the paper's fixed rounds."""
    return open_slots


@pytest.fixture
def fixed_rounds(monkeypatch):
    monkeypatch.setattr(confval.pipeline, "_settling_wave", every_open_slot)


def first_eval(dataset, label):
    return next(lf for lf in dataset.eval_set if lf.label is label)


class TestValidateFile:
    def test_echo_mock_flags_injected_parameter(self, corpus, fixed_rounds):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert verdict.tally == 10
        assert verdict.total_votes == 10
        assert verdict.reasons == (target.injected.reason,)

    def test_echo_mock_settles_in_one_wave(self, corpus, waves):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        backend = Counting(MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth)))
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        # 6 of 10 agreeing answers leave the 4 open slots unable to tie
        assert waves == [6]
        assert backend.calls == 6
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert (verdict.tally, verdict.total_votes) == (6, 6)
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
        backend = Counting(MockBackend(script))
        verdict = validate_file(target.file, backend, shot_db, settings)
        assert verdict.hasError is True
        assert verdict.discarded_count == 2
        assert backend.calls == 3

    def _rejection_script(self, target, truth, settings):
        """Two malformed answers, then each of R1-R4 twice, then the truth."""
        fp = prompt_fingerprint(build_prompt(target.file, [], settings.question_template).text)
        a, b = target.injected.parameter, "other.parameter"
        rejected = {
            "R1": {"hasError": False, "errParameter": [a], "reason": ["odd"]},
            "R2": {"hasError": True, "errParameter": [], "reason": []},
            "R3": {"hasError": True, "errParameter": [a, b], "reason": ["odd"]},
            "R4": {"hasError": True, "errParameter": [a, a], "reason": ["odd", "odd"]},
        }
        order = [MALFORMED_TEXT] * 2
        for rule in ("R1", "R2", "R3", "R4"):
            order += [json.dumps(rejected[rule])] * 2
        return MockScript(
            MockBehavior.ECHO_GROUND_TRUTH,
            truth=truth,
            responses={(fp, i): text for i, text in enumerate(order)},
        )

    def test_repeated_rejections_are_counted_per_slot(self, corpus, fixed_rounds):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        settings = PipelineSettings(
            num_queries=4, retry_bound=3, seed=5, combination=ShotCombination(0, 0)
        )
        # rounds of 4, 4, 4 and 2 slots; each rejected text comes twice
        backend = Counting(MockBackend(self._rejection_script(target, truth, settings)))
        verdict = validate_file(target.file, backend, shot_db, settings)
        assert backend.calls == 14
        assert verdict.discarded_count == 10
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert (verdict.tally, verdict.total_votes) == (4, 4)
        assert verdict.reasons == (target.injected.reason,)

    def test_repeated_rejections_settle_early(self, corpus, waves):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        settings = PipelineSettings(
            num_queries=4, retry_bound=3, seed=5, combination=ShotCombination(0, 0)
        )
        backend = Counting(MockBackend(self._rejection_script(target, truth, settings)))
        verdict = validate_file(target.file, backend, shot_db, settings)
        # calls 0-9 are rejected, 10 onwards accepted; a wave takes at most 3
        # slots (any 3 answers could settle 4 open slots) of one attempt:
        # first attempts 3 + 1 (calls 0-3), second attempts 3 + 1 (4-7),
        # third attempts 3 (8 and 9 rejected, 10 accepted), then 1 of the
        # remaining third attempt and 1 of the two fourth (11, 12 accepted):
        # 3 votes beat the one open slot.
        assert waves == [3, 1, 3, 1, 3, 1, 1]
        assert backend.calls == 13
        assert verdict.discarded_count == 10
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert (verdict.tally, verdict.total_votes) == (3, 3)
        assert verdict.reasons == (target.injected.reason,)

    def test_all_slots_exhausted_is_an_error(self, corpus):
        dataset, shot_db, _ = corpus
        target = first_eval(dataset, Label.VALID)
        backend = Counting(MockBackend(MockScript(MockBehavior.MALFORMED)))
        with pytest.raises(ValidationFailedError):
            validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        # no answer is ever accepted, so every slot makes its first attempt
        # and 3 retries
        assert backend.calls == 40

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


# --- the stop rule as a property over scripted answer sequences ---

ANSWERS = (
    valid_answer().to_json(),
    flagging("a").to_json(),
    flagging("b").to_json(),
    flagging("a", "b").to_json(),
)
REJECTED = (
    MALFORMED_TEXT,
    json.dumps({"hasError": False, "errParameter": ["a"], "reason": ["odd"]}),  # R1
    json.dumps({"hasError": True, "errParameter": [], "reason": []}),  # R2
    json.dumps({"hasError": True, "errParameter": ["a", "b"], "reason": ["odd"]}),  # R3
    json.dumps({"hasError": True, "errParameter": ["a", "a"], "reason": ["x", "y"]}),  # R4
)


@st.composite
def answer_scripts(draw):
    """(num_queries, retry_bound, one completion per call index)."""
    num_queries = draw(st.integers(1, 12))
    retry_bound = draw(st.integers(0, 3))
    keys = draw(st.integers(1, 4))
    completion = st.one_of(st.sampled_from(ANSWERS[:keys]), st.sampled_from(REJECTED))
    texts = draw(st.lists(completion, min_size=num_queries * (retry_bound + 1),
                          max_size=num_queries * (retry_bound + 1)))
    return num_queries, retry_bound, texts


@pytest.fixture(scope="module")
def bare_target():
    """A misconfigured target, prompted with no shots."""
    dataset = build_dataset(demo_spec_set(), rng=random.Random(7))
    return first_eval(dataset, Label.MISCONFIG).file


def strict_margin_wave(tally, open_slots):
    """The earlier stop rule, frozen: settled only once the leader has more
    votes than the runner-up plus every open slot, blind to the tie-break."""
    top = tally.most_common(2)
    leader = top[0][1] if top else 0
    runner_up = top[1][1] if len(top) > 1 else 0
    if leader > runner_up + open_slots:
        return 0
    return min(open_slots, (runner_up + open_slots - leader) // 2 + 1)


# the valid key and two misconfig keys to count, and a key no answer has
# given yet, which wins a tie against both misconfig keys
COUNTED = (valid_answer().canonical_key(), (True, ("b",)), (True, ("a", "b")))
UNSEEN = (True, ("a",))


@functools.cache
def vote_winner(counts):
    """vote's winning key over counts[i] answers for (COUNTED + (UNSEEN,))[i]."""
    keys = COUNTED + (UNSEEN,)
    responses = [
        ValidationResponse(key[0], key[1], key[1]) for key, n in zip(keys, counts) for _ in range(n)
    ]
    return vote(responses).canonical_key


def outcomes(slots):
    """Every way that many more slots can end: how many answer each of the
    four keys; the rest give no answer."""
    for counts in itertools.product(range(slots + 1), repeat=4):
        if sum(counts) <= slots:
            yield counts


class TestStopRule:
    def _run(self, target, num_queries, retry_bound, texts, wave_rule=None):
        """validate_file over scripted completions, with wave_rule in place of
        _settling_wave when one is given: (verdict or None, calls made)."""
        settings = PipelineSettings(
            num_queries=num_queries, retry_bound=retry_bound, combination=ShotCombination(0, 0)
        )
        fp = prompt_fingerprint(build_prompt(target, [], settings.question_template).text)
        backend = Counting(
            MockBackend(
                MockScript(MockBehavior.ALWAYS_VALID, responses={(fp, i): t for i, t in enumerate(texts)})
            )
        )
        with pytest.MonkeyPatch.context() as patch:
            if wave_rule is not None:
                patch.setattr(confval.pipeline, "_settling_wave", wave_rule)
            try:
                verdict = validate_file(target, backend, ShotDatabase([]), settings)
            except ValidationFailedError:
                verdict = None
        return verdict, backend.calls

    def test_stop_is_exact(self):
        """For every tally over three keys and every open count up to 7 slots
        in all, the vote is settled exactly when no way the open slots can
        end changes the winner; and no outcome of fewer slots than a wave
        settles it."""
        for *counts, open_slots in itertools.product(range(8), repeat=4):
            if not any(counts) or sum(counts) + open_slots > 7:
                continue
            tally = Counter({key: n for key, n in zip(COUNTED, counts) if n})
            now = vote_winner((*counts, 0))
            unchanged = all(
                vote_winner(tuple(c + e for c, e in zip((*counts, 0), extra))) == now
                for extra in outcomes(open_slots)
            )
            wave = _settling_wave(tally, open_slots)
            assert (wave == 0) == unchanged, (counts, open_slots, wave)
            for extra in outcomes(wave - 1):
                grown = tally + Counter(dict(zip(COUNTED + (UNSEEN,), extra)))
                for ended in range(sum(extra), wave):
                    assert _settling_wave(grown, open_slots - ended) > 0, (counts, extra, ended)
        for open_slots in range(1, 8):
            assert _settling_wave(Counter(), open_slots) == open_slots // 2 + 1

    @settings(max_examples=200, deadline=None)
    @given(answer_scripts())
    def test_early_stop_keeps_the_key_and_saves_calls(self, bare_target, script):
        num_queries, retry_bound, texts = script
        full, full_calls = self._run(bare_target, num_queries, retry_bound, texts, every_open_slot)
        strict, strict_calls = self._run(bare_target, num_queries, retry_bound, texts, strict_margin_wave)
        early, early_calls = self._run(bare_target, num_queries, retry_bound, texts)
        assert early_calls <= strict_calls <= full_calls <= num_queries * (retry_bound + 1)
        # waves take the lowest attempt number first, so the early-stopped run
        # makes a prefix of the full run's calls: the same key, even where
        # slots run out of retries
        assert (early is None) == (full is None)
        if full is not None:
            assert early.canonical_key == full.canonical_key == strict.canonical_key
            assert early.discarded_count <= full.discarded_count
            assert early.tally <= full.tally

    def test_valid_leader_that_can_at_worst_be_tied_stops(self, bare_target):
        # 5 valid answers and 1 rejected in the first wave of 6: the 5 open
        # slots could at most tie the valid key, which wins every tie
        texts = [valid_answer().to_json()] * 5 + [MALFORMED_TEXT] + [valid_answer().to_json()] * 34
        verdict, calls = self._run(bare_target, 10, 3, texts)
        assert calls == 6
        assert verdict.canonical_key == (False, ())
        assert (verdict.tally, verdict.discarded_count) == (5, 1)
        # a strict margin asks once more, for 6 votes against 4 open slots
        assert self._run(bare_target, 10, 3, texts, strict_margin_wave)[1] == 7

    @settings(max_examples=100, deadline=None)
    @given(answer_scripts(), st.randoms(use_true_random=False))
    def test_wave_outcome_ignores_which_call_served_which_slot(self, bare_target, script, rng):
        """Parallel slots take call indices in whatever order their threads run;
        a wave whose results come back in any order must give the same verdict."""
        num_queries, retry_bound, texts = script
        expected = self._run(bare_target, num_queries, retry_bound, texts)
        original = confval.pipeline.query_batch

        def shuffled(backend, prompt, count):
            results = original(backend, prompt, count)
            rng.shuffle(results)
            return results

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(confval.pipeline, "query_batch", shuffled)
            verdict, calls = self._run(bare_target, num_queries, retry_bound, texts)
        assert calls == expected[1]
        if verdict is None:
            assert expected[0] is None
        else:
            assert verdict.to_report("t") == expected[0].to_report("t")

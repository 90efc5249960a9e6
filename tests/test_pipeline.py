import functools
import hashlib
import itertools
import json
import tracemalloc
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
    query_batch,
    truth_map,
)
from confval.errors import BackendError, ResponseFormatError, ValidationFailedError
from confval.evaluation import run_evaluation
from confval.misconfig_gen import Label
from confval.pipeline import FileVote, PipelineSettings, Verdict, _settling_wave, validate_file, vote
from confval.prompting import (
    SelectionStrategy,
    ShotCombination,
    ShotDatabase,
    build_prompt,
    shot_from_labeled,
)
from confval.responses import ValidationResponse, parse_response, valid_answer, validate_response

from conftest import Counting


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


@pytest.fixture
def readings(monkeypatch):
    """How often validate_file calls parse_response and validate_response."""
    calls = Counter()
    for name in ("parse_response", "validate_response"):
        original = getattr(confval.pipeline, name)

        def counting(arg, name=name, original=original):
            calls[name] += 1
            return original(arg)

        monkeypatch.setattr(confval.pipeline, name, counting)
    return calls


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

    def test_echo_mock_settles_in_one_wave(self, corpus, waves, readings):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        backend = Counting(MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth)))
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        # the first wave is the 5 answers that could settle the valid key,
        # which stands for every key not yet seen; 5 flags against 5 open
        # slots could still be tied by the valid key, which wins the tie, so
        # one more answer is asked for, and 6 against 4 open slots settle
        assert waves == [5, 1]
        assert backend.calls == 6
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert (verdict.tally, verdict.total_votes) == (6, 6)
        assert verdict.reasons == (target.injected.reason,)
        # six slots, one text: parsed and filtered once, voted six times
        assert readings == {"parse_response": 1, "validate_response": 1}
        file_vote = FileVote(PipelineSettings())
        assert drive(file_vote, [truth[target.file.content_key()]] * 40)[1] == 6
        assert len({id(r) for r in file_vote.accepted}) == 1
        # a valid file settles in the first wave: 5 valid answers against 5
        # open slots can at worst be tied, and the valid key wins every tie
        target = first_eval(dataset, Label.VALID)
        backend = Counting(MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth)))
        waves.clear()
        readings.clear()
        verdict = validate_file(target.file, backend, shot_db, PipelineSettings(seed=5))
        assert waves == [5]
        assert backend.calls == 5
        assert verdict.canonical_key == (False, ())
        assert (verdict.tally, verdict.total_votes) == (5, 5)
        assert verdict.reasons == ()
        assert readings == {"parse_response": 1, "validate_response": 1}

    def test_repeated_rejection_still_retries_every_slot(self, corpus, waves, readings):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        settings = PipelineSettings(seed=5, combination=ShotCombination(0, 0))
        fp = prompt_fingerprint(build_prompt(target.file, [], settings.question_template).text)
        r3 = json.dumps({"hasError": True, "errParameter": ["a", "b"], "reason": ["odd"]})

        def run(rejected_calls):
            responses = {(fp, i): r3 for i in range(rejected_calls)}
            script = MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth, responses=responses)
            backend = Counting(MockBackend(script))
            waves.clear()
            readings.clear()
            try:
                return validate_file(target.file, backend, shot_db, settings), backend.calls
            except ValidationFailedError as failure:
                return str(failure), backend.calls

        # every call rejected: each of the 10 slots makes its first attempt and
        # 3 retries, and every one of the 40 answers is a discard. With nothing
        # counted, a wave is half the open slots, rounded up, taken from one
        # attempt: 10 open slots give waves of 5 until the last attempts, whose
        # slots earn no retry, so the open slots shrink from 10 to 5, 2 and 1
        failure, calls = run(40)
        assert calls == 40
        assert waves == [5, 5, 5, 5, 5, 5, 5, 3, 1, 1]
        assert "(40 discarded, 0 backend failures)" in failure
        assert readings == {"parse_response": 1, "validate_response": 1}
        # the first 10 calls rejected: every slot retries once; 5 accepted
        # retries could still be tied by the valid key from the 5 open
        # retries, and a sixth settles the vote
        verdict, calls = run(10)
        assert calls == 16
        assert waves == [5, 5, 5, 1]
        assert verdict.discarded_count == 10
        assert (verdict.tally, verdict.total_votes) == (6, 6)
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        assert readings == {"parse_response": 2, "validate_response": 2}

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
        # calls 0-9 are rejected, 10 onwards accepted; with nothing counted a
        # wave is 2 of the 4 open slots (2 valid answers could at worst be
        # tied), taken from one attempt: first attempts 2 + 2 (calls 0-3),
        # second attempts 2 + 2 (4-7), third attempts 2 (8 and 9 rejected),
        # the other two third attempts (10 and 11 accepted), then 1 of the
        # two fourth (12 accepted): 2 votes against 2 open slots could still
        # be tied by the valid key, 3 votes beat the one open slot.
        assert waves == [2, 2, 2, 2, 2, 2, 1]
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

    def test_noise_deterministic_across_runs(self, corpus, monkeypatch):
        dataset, shot_db, truth = corpus
        target = first_eval(dataset, Label.MISCONFIG)
        served = Counter()

        def serving(backend, prompt, count):
            served.update(results := query_batch(backend, prompt, count))
            return results

        monkeypatch.setattr(confval.pipeline, "query_batch", serving)

        def run(parallel):
            script = MockScript(
                MockBehavior.NOISE_WITH_RATE, truth=truth, noise_rate=0.5, seed=99
            )
            backend = MockBackend(script, BackendConfig(max_parallel=parallel))
            served.clear()
            return validate_file(target.file, backend, shot_db, PipelineSettings(seed=5)), Counter(served)

        (first, first_texts), (second, second_texts) = run(1), run(1)
        assert first.canonical_key == second.canonical_key
        assert first.tally == second.tally
        assert first_texts == second_texts

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


def drive(file_vote, texts, rng=None):
    """Feed file_vote texts[i] for its i-th call, each wave shuffled by rng
    when one is given, until it asks for no more: (verdict or None, calls)."""
    calls = 0
    while True:
        attempt, open_slots, earned = file_vote.attempt, file_vote.open, file_vote.earned
        wave = file_vote.next_wave()
        if not wave:
            break
        # a wave takes open slots of the current attempt while it has any,
        # else of the next one, and no more
        if open_slots:
            assert file_vote.attempt == attempt and wave <= open_slots
        else:
            assert file_vote.attempt == attempt + 1 and wave <= earned
        results = texts[calls : calls + wave]
        if rng is not None:
            rng.shuffle(results)
        file_vote.add(results)
        calls += wave
    assert file_vote.next_wave() == 0
    settings = file_vote.settings
    assert calls <= settings.num_queries * (settings.retry_bound + 1)
    try:
        return file_vote.verdict("t"), calls
    except ValidationFailedError:
        return None, calls


def test_huge_retry_bound_costs_only_the_retries_earned():
    """A retry is booked once a discard earns it: a bound of 10**9 builds in
    bounded memory, and a slot may still retry past the attempts booked so far."""
    tracemalloc.start()
    try:
        file_vote = FileVote(PipelineSettings(num_queries=2, retry_bound=10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    verdict, calls = drive(file_vote, [MALFORMED_TEXT] * 5 + [valid_answer().to_json()] * 2)
    assert (verdict.canonical_key, verdict.tally, verdict.discarded_count, calls) == ((False, ()), 1, 5, 6)


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
    def _run(self, num_queries, retry_bound, texts, wave_rule=None, rng=None):
        """A FileVote fed the scripted completions, with wave_rule in place of
        _settling_wave when one is given: (verdict or None, calls made)."""
        file_vote = FileVote(PipelineSettings(num_queries=num_queries, retry_bound=retry_bound))
        with pytest.MonkeyPatch.context() as patch:
            if wave_rule is not None:
                patch.setattr(confval.pipeline, "_settling_wave", wave_rule)
            return drive(file_vote, texts, rng)

    def test_stop_is_exact(self):
        """For every tally over three keys, the empty one included, and every
        open count up to 7 slots in all, the vote is settled exactly when no
        way the open slots can end changes the winner; no outcome of fewer
        slots than a wave settles it, and a wave of answers for one key can."""
        for *counts, open_slots in itertools.product(range(8), repeat=4):
            if sum(counts) + open_slots > 7 or not any(counts) and not open_slots:
                continue
            tally = Counter({key: n for key, n in zip(COUNTED, counts) if n})
            wave = _settling_wave(tally, open_slots)
            if any(counts):
                now = vote_winner((*counts, 0))
                unchanged = all(
                    vote_winner(tuple(c + e for c, e in zip((*counts, 0), extra))) == now
                    for extra in outcomes(open_slots)
                )
                assert (wave == 0) == unchanged, (counts, open_slots, wave)
            else:
                # nothing counted: no vote yet, so never settled
                assert wave > 0, open_slots
            for extra in outcomes(wave - 1):
                grown = tally + Counter(dict(zip(COUNTED + (UNSEEN,), extra)))
                for ended in range(sum(extra), wave):
                    assert _settling_wave(grown, open_slots - ended) > 0, (counts, extra, ended)
            if wave:
                assert any(
                    _settling_wave(tally + Counter({key: wave}), open_slots - wave) == 0
                    for key in COUNTED + (UNSEEN,)
                ), (counts, open_slots, wave)

    @settings(max_examples=200, deadline=None)
    @given(answer_scripts())
    def test_early_stop_keeps_the_key_and_saves_calls(self, script):
        num_queries, retry_bound, texts = script
        full, full_calls = self._run(num_queries, retry_bound, texts, every_open_slot)
        strict, strict_calls = self._run(num_queries, retry_bound, texts, strict_margin_wave)
        early, early_calls = self._run(num_queries, retry_bound, texts)
        assert early_calls <= strict_calls <= full_calls <= num_queries * (retry_bound + 1)
        # waves take the lowest attempt number first, so the early-stopped run
        # makes a prefix of the full run's calls: the same key, even where
        # slots run out of retries
        assert (early is None) == (full is None)
        if full is not None:
            assert early.canonical_key == full.canonical_key == strict.canonical_key
            assert early.discarded_count <= full.discarded_count
            assert early.tally <= full.tally

    def test_valid_leader_that_can_at_worst_be_tied_stops(self):
        # 1 rejected and 4 valid answers in the first wave of 5 leave 6 open
        # slots (5 first attempts and 1 retry), so one more answer is asked
        # for; after 5 valid answers the 5 open slots could at most tie the
        # valid key, which wins every tie
        texts = [MALFORMED_TEXT] + [valid_answer().to_json()] * 39
        verdict, calls = self._run(10, 3, texts)
        assert calls == 6
        assert verdict.canonical_key == (False, ())
        assert (verdict.tally, verdict.discarded_count) == (5, 1)
        # a strict margin asks for a first wave of 6 and then once more, for
        # 6 votes against 4 open slots
        assert self._run(10, 3, texts, strict_margin_wave)[1] == 7

    @settings(max_examples=100, deadline=None)
    @given(answer_scripts(), st.randoms(use_true_random=False))
    def test_wave_outcome_ignores_which_call_served_which_slot(self, script, rng):
        """Parallel slots take call indices in whatever order their threads run;
        a wave whose results come back in any order must give the same verdict."""
        num_queries, retry_bound, texts = script
        expected, expected_calls = self._run(num_queries, retry_bound, texts)
        verdict, calls = self._run(num_queries, retry_bound, texts, rng=rng)
        assert calls == expected_calls
        assert (verdict and verdict.to_report("t")) == (expected and expected.to_report("t"))


@pytest.fixture(scope="module")
def six_corpus(six_datasets):
    """The six-project corpus: (eval splits, shot database, truth map)."""
    splits = {project: split for project, (_, split) in six_datasets.items()}
    shot_db = ShotDatabase(
        shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool
    )
    return splits, shot_db, truth_map(splits.values())


@pytest.mark.parametrize(
    "behavior, noise_rate, strategy",
    [
        (MockBehavior.ECHO_GROUND_TRUTH, 0.0, SelectionStrategy.RANDOM),
        (MockBehavior.NOISE_WITH_RATE, 0.2, SelectionStrategy.COSINE_SIMILARITY),
    ],
)
def test_early_stop_reports_as_fixed_rounds_on_the_corpus(
    six_corpus, behavior, noise_rate, strategy
):
    """On the six-project corpus, two workers, the shipped stop rule gives the
    report of the paper's fixed rounds byte for byte, from no more calls."""
    splits, shot_db, truth = six_corpus
    settings = PipelineSettings(seed=11, strategy=strategy)

    def run(wave_rule=None):
        script = MockScript(behavior, truth=truth, noise_rate=noise_rate, seed=5)
        backend = Counting(MockBackend(script, BackendConfig(max_parallel=2)))
        with pytest.MonkeyPatch.context() as patch:
            if wave_rule is not None:
                patch.setattr(confval.pipeline, "_settling_wave", wave_rule)
            report = run_evaluation(splits, backend, shot_db, settings, jobs=2)
        return json.dumps(report.to_dict(), indent=2), report.files_scored, backend.calls

    early, files, early_calls = run()
    full, _, full_calls = run(every_open_slot)
    assert early == full
    assert early_calls <= full_calls
    if behavior is MockBehavior.ECHO_GROUND_TRUTH:
        # half the eval files are valid and settle in 5 calls, half are
        # misconfigured and settle in 6
        assert early_calls / files == 5.5


# every eval file's verdict report as a JSON line, hashed; the same on Python 3.10-3.12
VERDICT_DIGESTS = {
    SelectionStrategy.RANDOM: "a62d20927f4fcbea659b833d3a8032f8956632000cc97e2a2bfe634c908d016b",
    SelectionStrategy.COSINE_SIMILARITY: "231583545484d0304a3a1bb4731f2e6bb2d0f414eebd65cc6fc8a817f987ec47",
}


@pytest.mark.parametrize("strategy", list(VERDICT_DIGESTS))
def test_validate_output_is_pinned(six_corpus, strategy):
    """Tally, votes, discards and reasons per file, which evaluate reports
    leave out, stay as they were at 0.5 noise."""
    splits, shot_db, truth = six_corpus
    script = MockScript(MockBehavior.NOISE_WITH_RATE, truth=truth, noise_rate=0.5, seed=5)
    backend = MockBackend(script, BackendConfig(max_parallel=4))
    settings = PipelineSettings(seed=11, strategy=strategy)
    digest = hashlib.sha256()
    for project in sorted(splits):
        for labeled in splits[project].eval_set:
            verdict = validate_file(labeled.file, backend, shot_db, settings)
            report = verdict.to_report(labeled.file.content_key())
            digest.update((json.dumps(report, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == VERDICT_DIGESTS[strategy]


# --- reading each distinct completion once, against reading every slot ---

PROSE_FENCED = "Here is my answer:\n```json\n" + flagging("a").to_json() + "\n```\nHope it helps."
ALPHABET = (
    valid_answer().to_json(),
    flagging("a").to_json(),
    flagging("b").to_json(),
    json.dumps({"hasError": True, "errParameter": ["a"], "reason": ["another reason"]}),
    PROSE_FENCED,
    *REJECTED,  # no JSON and R1-R4
    valid_answer().to_json() + " " + valid_answer().to_json(),  # two objects
)


class PerSlotVote(FileVote):
    """A FileVote that parses and filters every slot's completion on its own."""

    def read(self, completion):
        try:
            parsed = parse_response(completion)
        except ResponseFormatError:
            return None
        return parsed if validate_response(parsed) is None else None


@settings(max_examples=150, deadline=None)
@given(
    num_queries=st.integers(1, 10),
    retry_bound=st.integers(0, 3),
    data=st.data(),
)
def test_reading_once_matches_reading_every_slot(num_queries, retry_bound, data):
    calls_at_most = num_queries * (retry_bound + 1)
    texts = data.draw(
        st.lists(st.sampled_from(ALPHABET), min_size=calls_at_most, max_size=calls_at_most)
    )
    settings = PipelineSettings(num_queries=num_queries, retry_bound=retry_bound)
    reference, cached = PerSlotVote(settings), FileVote(settings)
    expected, reference_calls = drive(reference, texts)
    parsed = Counter()
    original = confval.pipeline.parse_response

    def counting(text):
        parsed[text] += 1
        return original(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confval.pipeline, "parse_response", counting)
        verdict, calls = drive(cached, texts)
    assert calls == reference_calls
    assert parsed == Counter(set(texts[:calls]))
    assert (verdict and verdict.to_report("t")) == (expected and expected.to_report("t"))
    assert Counter(cached.accepted) == Counter(reference.accepted)


@settings(max_examples=150, deadline=None)
@given(
    num_queries=st.integers(1, 10),
    retry_bound=st.integers(0, 3),
    data=st.data(),
)
def test_verdict_from_the_running_tally_matches_a_recount(num_queries, retry_bound, data):
    """FileVote.verdict hands vote the tally it keeps wave by wave, so vote
    counts no key again; after every wave that leaves an accepted answer that
    verdict is the one a recount of the accepted answers gives."""
    file_vote = FileVote(PipelineSettings(num_queries=num_queries, retry_bound=retry_bound))
    slot = st.one_of(st.sampled_from(ALPHABET), st.just(BackendError("down", "transport", retryable=True)))
    while wave := file_vote.next_wave():
        file_vote.add(data.draw(st.lists(slot, min_size=wave, max_size=wave)))
        accepted = file_vote.accepted
        if accepted:
            recount = vote(accepted, discarded_count=file_vote.discarded, target_key="t")
            assert file_vote.verdict("t") == recount
            assert vote(accepted, tally=Counter(r.canonical_key() for r in accepted)) == vote(accepted)

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confval.pipeline
import confval.prompting
import confval.textsim
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat, render_config
from confval.constraints import Subcategory
from confval.errors import InsufficientShotsError, TokenBudgetExceededError
from confval.backend import MockBackend, MockBehavior, MockScript, truth_map
from confval.misconfig_gen import InjectedFault, Label, LabeledFile
from confval.pipeline import PipelineSettings, validate_file
from confval.prompting import (
    DEFAULT_COMBINATION,
    SelectionStrategy,
    ShotCombination,
    ShotDatabase,
    build_prompt,
    enumerate_shot_combinations,
    estimate_tokens,
    fit_to_budget,
    prompt_fingerprint,
    select_shots,
    shot_db_from,
    shot_from_labeled,
)
from confval.textsim import cosine, tfidf_vectors


def small_file(project="demo", names=("a", "b"), value="1", fmt=ConfigFormat.XML):
    entries = tuple(ConfigEntry(n, value) for n in names)
    return ConfigFile(project, "1.0", fmt, entries)


def valid_shot(project="demo", names=("a", "b")):
    labeled = LabeledFile(small_file(project, names), Label.VALID)
    return shot_from_labeled(labeled)


def misconfig_shot(project="demo", names=("a", "b"), flagged="a", subcat=Subcategory.RANGE_PORT):
    fault = InjectedFault(flagged, subcat, f"{flagged} is wrong")
    labeled = LabeledFile(small_file(project, names), Label.MISCONFIG, fault, bucket=subcat)
    return shot_from_labeled(labeled)


class TestShot:
    def test_misconfig_shot_must_flag_injected(self):
        fault = InjectedFault("a", Subcategory.RANGE_PORT, "too big")
        labeled = LabeledFile(small_file(), Label.MISCONFIG, fault, bucket=Subcategory.RANGE_PORT)
        shot = shot_from_labeled(labeled)
        assert shot.ground_truth_answer.errParameter == ("a",)


class TestCombinations:
    def test_sweep_enumerates_21(self):
        combos = enumerate_shot_combinations(5)
        assert len(combos) == 21
        assert len(set((c.valid_count, c.misconfig_count) for c in combos)) == 21
        assert all(0 <= c.total <= 5 for c in combos)

    def test_default_is_one_valid_three_misconfig(self):
        assert DEFAULT_COMBINATION == ShotCombination(1, 3)


class TestEstimator:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_four_chars_per_token(self):
        assert estimate_tokens("x" * 400) == 100
        assert estimate_tokens("x" * 401) == 101

    @settings(max_examples=100)
    @given(st.text(max_size=200), st.text(max_size=200))
    def test_concatenation_monotone(self, a, b):
        assert estimate_tokens(a + b) >= max(estimate_tokens(a), estimate_tokens(b))


def make_db():
    shots = []
    for i in range(4):
        shots.append(valid_shot("demo", (f"v{i}", "x")))
        shots.append(misconfig_shot("demo", (f"m{i}", "x"), flagged=f"m{i}"))
    for i in range(4):
        shots.append(valid_shot("other", (f"ov{i}", "x")))
        shots.append(
            misconfig_shot(
                "other", (f"om{i}", "x"), flagged=f"om{i}", subcat=Subcategory.SYNTAX_PATH
            )
        )
    return ShotDatabase(shots)


# --- a frozen reference: the selection before one loop served every strategy ---


def reference_take(primary, fallback, count, rng):
    if count == 0:
        return []
    if len(primary) >= count:
        return rng.sample(primary, count)
    remaining = count - len(primary)
    if len(fallback) < remaining:
        raise InsufficientShotsError(
            f"requested {count} shots, only {len(primary) + len(fallback)} available"
        )
    return list(primary) + rng.sample(fallback, remaining)


def reference_rank(db, project, label, target, count):
    """The count shots nearest the target by per-call TF-IDF vectors, from
    its own project's pool first."""
    picked, available = [], 0
    for pool in (db.pool(project, label), reference_other_pool(db, project, label)):
        if len(picked) == count:
            return picked
        available += len(pool)
        if pool:
            docs = [" ".join(shot.labeled.file.names()) for shot in pool]
            vectors = tfidf_vectors([" ".join(target.names())] + docs)
            scores = [cosine(vectors[0], vec) for vec in vectors[1:]]
            order = sorted(range(len(docs)), key=lambda i: (-scores[i], i))
            picked += [pool[i] for i in order[: count - len(picked)]]
    if len(picked) < count:
        raise InsufficientShotsError(f"requested {count} shots, only {available} available")
    return picked


def reference_other_pool(db, project, label):
    out = []
    for name in db.projects():
        if name != project:
            out.extend(db.pool(name, label))
    return out


def reference_select(db, target, combo, strategy, seed=0, target_subcategory=None):
    project = target.project
    if strategy is SelectionStrategy.COSINE_SIMILARITY:
        return reference_rank(db, project, Label.VALID, target, combo.valid_count) + reference_rank(
            db, project, Label.MISCONFIG, target, combo.misconfig_count
        )
    digest = hashlib.sha256(f"{seed}:{target.content_key()}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    mis_primary = db.pool(project, Label.MISCONFIG)
    mis_fallback = reference_other_pool(db, project, Label.MISCONFIG)
    valid = reference_take(
        db.pool(project, Label.VALID), reference_other_pool(db, project, Label.VALID),
        combo.valid_count, rng,
    )
    if strategy is SelectionStrategy.SAME_SUBCATEGORY and target_subcategory is not None:
        count = combo.misconfig_count
        return valid + reference_take_subcategory(mis_primary, mis_fallback, target_subcategory, count, rng)
    return valid + reference_take(mis_primary, mis_fallback, combo.misconfig_count, rng)


def reference_take_subcategory(primary, fallback, subcategory, count, rng):
    """reference_take over the shots of the sub-category; what they lack comes
    from reference_take over the other shots, again own project first."""
    own_in = [s for s in primary if s.labeled.injected.subcategory is subcategory]
    other_in = [s for s in fallback if s.labeled.injected.subcategory is subcategory]
    own_out = [s for s in primary if s.labeled.injected.subcategory is not subcategory]
    other_out = [s for s in fallback if s.labeled.injected.subcategory is not subcategory]
    taken = own_in + other_in
    if len(taken) >= count:
        return reference_take(own_in, other_in, count, rng)
    try:
        return taken + reference_take(own_out, other_out, count - len(taken), rng)
    except InsufficientShotsError:
        available = len(primary) + len(fallback)
        raise InsufficientShotsError(f"requested {count} shots, only {available} available") from None


def six_splits_and_databases(six_datasets):
    """The six demo corpora by project, a shot database of all of them and
    one that lacks the first project's shots."""
    splits = {project: split for project, (_, split) in six_datasets.items()}
    first = sorted(splits)[0]
    return splits, [
        shot_db_from(splits.values()),
        shot_db_from(split for project, split in splits.items() if project != first),
    ]


def choice_or_error(select, db, labeled, combo, strategy, seed):
    """The shots' ids and prompt text select gives, or its InsufficientShotsError message."""
    try:
        shots = select(db, labeled.file, combo, strategy, seed, labeled.bucket)
    except InsufficientShotsError as exc:
        return str(exc)
    ids = [(s.source_project, s.labeled.file.content_key()) for s in shots]
    return labeled.file.project, ids, build_prompt(labeled.file, shots).text


class TestSelectShots:
    def test_requested_mix_from_same_project(self):
        db = make_db()
        shots = select_shots(db, small_file(), ShotCombination(1, 3), SelectionStrategy.RANDOM)
        assert len(shots) == 4
        assert sum(s.label is Label.VALID for s in shots) == 1
        assert sum(s.label is Label.MISCONFIG for s in shots) == 3
        assert all(s.source_project == "demo" for s in shots)

    def test_zero_shot(self):
        shots = select_shots(make_db(), small_file(), ShotCombination(0, 0), SelectionStrategy.RANDOM)
        assert shots == []

    def test_fallback_to_other_projects(self):
        db = make_db()
        shots = select_shots(db, small_file("unseen"), ShotCombination(1, 1), SelectionStrategy.RANDOM)
        assert len(shots) == 2
        assert all(s.source_project in ("demo", "other") for s in shots)

    def test_insufficient_is_an_error(self):
        db = ShotDatabase([valid_shot()])
        for strategy in SelectionStrategy:
            with pytest.raises(InsufficientShotsError, match="requested 2 shots, only 1 available"):
                select_shots(db, small_file(), ShotCombination(2, 0), strategy)

    def test_deterministic_for_seed(self):
        db = make_db()
        pick = lambda: [  # noqa: E731
            s.labeled.file.content_key()
            for s in select_shots(db, small_file(), ShotCombination(2, 2), SelectionStrategy.RANDOM, seed=9)
        ]
        assert pick() == pick()

    def test_same_subcategory_filter(self):
        db = make_db()
        shots = select_shots(
            db,
            small_file(),
            ShotCombination(0, 2),
            SelectionStrategy.SAME_SUBCATEGORY,
            target_subcategory=Subcategory.RANGE_PORT,
        )
        assert all(
            s.labeled.injected.subcategory is Subcategory.RANGE_PORT for s in shots
        )
        # with no known sub-category (validate), it draws exactly like random
        unknown = select_shots(db, small_file(), ShotCombination(1, 2), SelectionStrategy.SAME_SUBCATEGORY)
        assert unknown == select_shots(db, small_file(), ShotCombination(1, 2), SelectionStrategy.RANDOM)

    def test_same_subcategory_spans_projects_when_needed(self):
        db = make_db()
        shots = select_shots(
            db,
            small_file(),
            ShotCombination(0, 3),
            SelectionStrategy.SAME_SUBCATEGORY,
            target_subcategory=Subcategory.SYNTAX_PATH,
        )
        assert len(shots) == 3
        assert all(s.source_project == "other" for s in shots)

    def test_same_subcategory_fills_from_the_other_shots(self):
        """The four other-project shots of the sub-category come first; the
        shortfall comes from the rest, own project first."""
        db = make_db()

        def select(count):
            return select_shots(
                db, small_file(), ShotCombination(0, count), SelectionStrategy.SAME_SUBCATEGORY,
                target_subcategory=Subcategory.SYNTAX_PATH,
            )

        shots = select(6)
        assert [(s.source_project, s.labeled.injected.subcategory) for s in shots] == [
            ("other", Subcategory.SYNTAX_PATH)
        ] * 4 + [("demo", Subcategory.RANGE_PORT)] * 2
        with pytest.raises(InsufficientShotsError, match="requested 9 shots, only 8 available"):
            select(9)

    def test_cosine_prefers_overlapping_parameters(self):
        db = make_db()
        target = small_file("demo", ("m2", "x"))
        shots = select_shots(db, target, ShotCombination(0, 1), SelectionStrategy.COSINE_SIMILARITY)
        assert shots[0].labeled.file.names()[0] == "m2"

    def test_cosine_tokenises_the_target_once(self, monkeypatch):
        db = make_db()
        target = small_file("demo", ("m2", "x"))

        def select():
            # 5 of each label: the own pool of 4 and then the other project's
            return select_shots(db, target, ShotCombination(5, 5), SelectionStrategy.COSINE_SIMILARITY)

        expected = select()  # builds the four pool indexes
        tokenised, ranked = [], []
        tokenize, rank = confval.textsim.tokenize, confval.prompting.rank_by_similarity
        monkeypatch.setattr(confval.textsim, "tokenize", lambda text: tokenised.append(text) or tokenize(text))
        monkeypatch.setattr(
            confval.prompting, "rank_by_similarity", lambda *args: ranked.append(1) or rank(*args)
        )
        assert select() == expected
        assert tokenised == ["m2 x"]
        assert len(ranked) == 4

    @pytest.mark.parametrize("strategy", list(SelectionStrategy))
    def test_only_sampled_shots_seed_a_target_rng(self, six_datasets, monkeypatch, strategy):
        """Cosine selection draws nothing, so no per-target rng is seeded for
        it; the sampling strategies draw from sha256(seed:content key)."""
        splits, (db, _) = six_splits_and_databases(six_datasets)
        target = next(lf for lf in splits[sorted(splits)[0]].eval_set if lf.label is Label.MISCONFIG)
        seeded, built = [], []
        original_rng = confval.prompting.derived_rng
        monkeypatch.setattr(
            confval.prompting, "derived_rng", lambda *args: seeded.append(args) or original_rng(*args)
        )

        def building(file, shots, template):
            built.append(shots)
            return build_prompt(file, shots, template)

        monkeypatch.setattr(confval.pipeline, "build_prompt", building)
        settings = PipelineSettings(seed=5, strategy=strategy, combination=ShotCombination(1, 1))
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth_map(splits.values())))
        verdict = validate_file(target.file, backend, db, settings, target_subcategory=target.bucket)
        assert verdict.canonical_key == (True, (target.injected.parameter,))
        key = target.file.content_key()
        sampled = strategy is not SelectionStrategy.COSINE_SIMILARITY
        assert seeded == ([(5, key)] if sampled else [])
        assert built == [reference_select(db, target.file, settings.combination, strategy, 5, target.bucket)]

    @pytest.mark.parametrize("strategy", list(SelectionStrategy))
    def test_prebuilt_other_pools_choose_the_same_shots(self, six_datasets, strategy):
        """Shots and prompt text match the frozen reference, which rebuilds
        the other projects' pool per call."""
        splits, databases = six_splits_and_databases(six_datasets)
        choices, expected = [], []
        for db in databases:
            for split in splits.values():
                for i, labeled in enumerate(split.eval_set[::4]):
                    combo = ShotCombination(i % 4, 3 + 5 * (i % 3))
                    choices.append(choice_or_error(select_shots, db, labeled, combo, strategy, i))
                    expected.append(choice_or_error(reference_select, db, labeled, combo, strategy, i))
        assert choices == expected
        # the other projects' pools were drawn from, for the unseen project too
        fallbacks = {
            project
            for project, ids, _ in (c for c in choices if isinstance(c, tuple))
            if any(source != project for source, _ in ids)
        }
        assert fallbacks == set(splits)

    def test_cosine_ranks_as_per_call_vectors(self, six_datasets):
        """Every strategy picks the shots the frozen reference does, whose
        cosine ranking builds per-call vectors: same-project pool first, then
        the other projects'."""
        splits, (db, _) = six_splits_and_databases(six_datasets)
        assert len(db.pool("tinyreg", Label.MISCONFIG)) == 3
        for strategy in SelectionStrategy:
            reached_fallback = set()
            for split in splits.values():
                for labeled in split.eval_set:
                    project = labeled.file.project
                    for combo in (DEFAULT_COMBINATION, ShotCombination(2, 5)):
                        choice = choice_or_error(select_shots, db, labeled, combo, strategy, 3)
                        assert choice == choice_or_error(reference_select, db, labeled, combo, strategy, 3)
                        if isinstance(choice, tuple):
                            reached_fallback |= {project for source, _ in choice[1] if source != project}
            assert "tinyreg" in reached_fallback
            total = sum(len(db.pool(project, Label.MISCONFIG)) for project in db.projects())
            with pytest.raises(InsufficientShotsError, match=f"requested {total + 1} shots, only {total} available"):
                select_shots(db, splits["tinyreg"].eval_set[0].file, ShotCombination(0, total + 1), strategy)


# sha256 over the prompt text, or the InsufficientShotsError message, of every
# eval file of the six demo corpora, under each strategy and each combination
# below, with the full shot database and with one that lacks the first project
SIX_DATASETS_SHOT_CHOICES_SHA256 = "7b392226d618931fe885f49730b0aa5563df6132099d13ee16f8e3b769073b33"
PINNED_COMBINATIONS = tuple(
    ShotCombination(v, m) for v, m in ((1, 3), (2, 5), (0, 0), (4, 1), (0, 12), (3, 3))
)


def test_shot_choices_are_pinned(six_datasets):
    splits, databases = six_splits_and_databases(six_datasets)
    digest = hashlib.sha256()
    for db in databases:
        for strategy in SelectionStrategy:
            for combo in PINNED_COMBINATIONS:
                for split in splits.values():
                    for labeled in split.eval_set:
                        try:
                            shots = select_shots(db, labeled.file, combo, strategy, 7, labeled.bucket)
                            text = build_prompt(labeled.file, shots).text
                        except InsufficientShotsError as exc:
                            text = str(exc)
                        digest.update(text.encode())
    assert digest.hexdigest() == SIX_DATASETS_SHOT_CHOICES_SHA256


class TestBuildPrompt:
    def test_zero_shot_prompt(self):
        target = small_file()
        prompt = build_prompt(target, [])
        assert prompt.text.count("### Configuration File") == 1
        assert "Are there any mistakes in the above configuration file" in prompt.text
        assert "demo version 1.0" in prompt.text

    def test_misconfig_shot_block(self):
        shot = misconfig_shot()
        prompt = build_prompt(small_file(), [shot])
        assert "Configuration File Shot #1" in prompt.text
        assert '"errParameter": ["a"]' in prompt.text
        assert prompt.text.index("Shot #1") < prompt.text.index("### Configuration File\n")

    def test_valid_shots_come_first(self):
        shots = [misconfig_shot(), valid_shot(names=("z", "q"))]
        prompt = build_prompt(small_file(), shots)
        assert prompt.shots[0].label is Label.VALID
        assert prompt.shots[1].label is Label.MISCONFIG

    def test_question_substitution(self):
        target = small_file(project="quorumd")
        prompt = build_prompt(target, [])
        assert "for quorumd version 1.0" in prompt.text
        assert "[PROJECT]" not in prompt.text

    def test_shots_render_once_across_prompts(self, monkeypatch):
        rendered = []

        def counting(file, fmt):
            rendered.append(file)
            return render_config(file, fmt)

        monkeypatch.setattr(confval.prompting, "render_config", counting)
        shots = [valid_shot(names=("z", "q")), misconfig_shot()]
        build_prompt(small_file(), shots)
        target = small_file(names=("c",))
        prompt = build_prompt(target, shots, "Any mistakes in [PROJECT] [VERSION]?")
        assert len(rendered) == 4  # each shot once, each target once
        question = "Q: Any mistakes in demo 1.0?"
        blocks = [
            f"### Configuration File Shot #{i}\n{render_config(shot.labeled.file, ConfigFormat.XML)}"
            f"{question}\nA: {shot.ground_truth_answer.to_json()}"
            for i, shot in enumerate(shots, start=1)
        ]
        blocks.append(f"### Configuration File\n{render_config(target, ConfigFormat.XML)}{question}")
        assert prompt.text == "\n\n".join(blocks)
        assert prompt.fingerprint == prompt_fingerprint(prompt.text)


class TestFitToBudget:
    def _bulky_shot(self, label, index):
        names = (f"{label}{index}.padding.parameter", "other")
        if label == "v":
            return valid_shot("demo", names)
        return misconfig_shot("demo", names, flagged=names[0])

    def test_under_limit_unchanged(self):
        prompt = build_prompt(small_file(), [self._bulky_shot("v", 0)])
        fitted = fit_to_budget(prompt, 10_000)
        assert fitted.text == prompt.text

    def test_fitting_prompt_is_returned_as_is(self):
        prompt = build_prompt(small_file(), [self._bulky_shot("v", 0)])
        assert fit_to_budget(prompt, prompt.token_estimate) is prompt

    def test_trims_to_two_shots(self):
        shots = [self._bulky_shot("m", i) for i in range(4)]
        prompt = build_prompt(small_file(), shots)
        two_shot = build_prompt(small_file(), shots[:2])
        limit = two_shot.token_estimate
        fitted = fit_to_budget(prompt, limit)
        assert len(fitted.shots) == 2
        assert fitted.token_estimate <= limit

    def test_valid_shots_dropped_before_misconfig(self):
        shots = [self._bulky_shot("v", 0), self._bulky_shot("m", 0), self._bulky_shot("m", 1)]
        prompt = build_prompt(small_file(), shots)
        keep_two = build_prompt(small_file(), [s for s in shots if s.label is Label.MISCONFIG])
        fitted = fit_to_budget(prompt, keep_two.token_estimate)
        assert [s.label for s in fitted.shots] == [Label.MISCONFIG, Label.MISCONFIG]

    def test_truncation_keeps_remaining_order(self):
        shots = [self._bulky_shot("m", i) for i in range(4)]
        prompt = build_prompt(small_file(), shots)
        fitted = fit_to_budget(prompt, build_prompt(small_file(), shots[:3]).token_estimate)
        kept = [s.labeled.file.content_key() for s in fitted.shots]
        original = [s.labeled.file.content_key() for s in prompt.shots]
        assert kept == original[: len(kept)]

    def test_compression_rescues_large_target(self):
        target = small_file(names=tuple(f"param.{i}" for i in range(30)), value="x" * 40)
        zero_xml = build_prompt(target, [])
        zero_ini = build_prompt(
            ConfigFile(target.project, target.version, ConfigFormat.INI, target.entries), []
        )
        limit = zero_ini.token_estimate
        assert zero_xml.token_estimate > limit
        fitted = fit_to_budget(build_prompt(target, []), limit)
        assert fitted.target.format is ConfigFormat.INI
        assert fitted.token_estimate <= limit

    def test_abort_when_nothing_fits(self):
        target = small_file(names=("p",), value="x" * 400)
        prompt = build_prompt(target, [])
        with pytest.raises(TokenBudgetExceededError):
            fit_to_budget(prompt, 10)

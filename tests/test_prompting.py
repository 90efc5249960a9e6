import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confval.prompting
import confval.textsim
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat, render_config
from confval.constraints import Subcategory
from confval.errors import InsufficientShotsError, TokenBudgetExceededError
from confval.misconfig_gen import InjectedFault, Label, LabeledFile
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
        labeled = LabeledFile(small_file(), Label.MISCONFIG, fault)
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


class TestSelectShots:
    def test_requested_mix_from_same_project(self):
        db = make_db()
        shots = select_shots(
            db, "demo", ShotCombination(1, 3), SelectionStrategy.RANDOM, random.Random(0)
        )
        assert len(shots) == 4
        assert sum(s.label is Label.VALID for s in shots) == 1
        assert sum(s.label is Label.MISCONFIG for s in shots) == 3
        assert all(s.source_project == "demo" for s in shots)

    def test_zero_shot(self):
        shots = select_shots(
            make_db(), "demo", ShotCombination(0, 0), SelectionStrategy.RANDOM, random.Random(0)
        )
        assert shots == []

    def test_fallback_to_other_projects(self):
        db = make_db()
        shots = select_shots(
            db, "unseen", ShotCombination(1, 1), SelectionStrategy.RANDOM, random.Random(0)
        )
        assert len(shots) == 2
        assert all(s.source_project in ("demo", "other") for s in shots)

    def test_insufficient_is_an_error(self):
        db = ShotDatabase([valid_shot()])
        with pytest.raises(InsufficientShotsError):
            select_shots(
                db, "demo", ShotCombination(2, 0), SelectionStrategy.RANDOM, random.Random(0)
            )

    def test_deterministic_for_seed(self):
        db = make_db()
        pick = lambda: [  # noqa: E731
            s.labeled.file.content_key()
            for s in select_shots(
                db, "demo", ShotCombination(2, 2), SelectionStrategy.RANDOM, random.Random(9)
            )
        ]
        assert pick() == pick()

    def test_same_subcategory_filter(self):
        db = make_db()
        shots = select_shots(
            db,
            "demo",
            ShotCombination(0, 2),
            SelectionStrategy.SAME_SUBCATEGORY,
            random.Random(0),
            target_subcategory=Subcategory.RANGE_PORT,
        )
        assert all(
            s.labeled.injected.subcategory is Subcategory.RANGE_PORT for s in shots
        )

    def test_same_subcategory_spans_projects_when_needed(self):
        db = make_db()
        shots = select_shots(
            db,
            "demo",
            ShotCombination(0, 3),
            SelectionStrategy.SAME_SUBCATEGORY,
            random.Random(0),
            target_subcategory=Subcategory.SYNTAX_PATH,
        )
        assert len(shots) == 3
        assert all(s.source_project == "other" for s in shots)

    def test_cosine_prefers_overlapping_parameters(self):
        db = make_db()
        target = small_file("demo", ("m2", "x"))
        shots = select_shots(
            db,
            "demo",
            ShotCombination(0, 1),
            SelectionStrategy.COSINE_SIMILARITY,
            random.Random(0),
            target=target,
        )
        assert shots[0].labeled.file.names()[0] == "m2"

    def test_cosine_tokenises_the_target_once(self, monkeypatch):
        db = make_db()
        target = small_file("demo", ("m2", "x"))

        def select():
            # 5 of each label: the own pool of 4 and then the other project's
            return select_shots(
                db, "demo", ShotCombination(5, 5), SelectionStrategy.COSINE_SIMILARITY,
                random.Random(0), target=target,
            )

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


    @pytest.mark.parametrize(
        "strategy", [SelectionStrategy.RANDOM, SelectionStrategy.COSINE_SIMILARITY]
    )
    def test_prebuilt_other_pools_choose_the_same_shots(self, six_datasets, monkeypatch, strategy):
        """Shots and prompt text match a frozen copy of the per-call other_pool."""

        def rebuilt_other_pool(db, project, label):
            out = []
            for name in db.projects():
                if name != project:
                    out.extend(db.pool(name, label))
            return out

        splits = {project: split for project, (_, split) in six_datasets.items()}
        unseen = sorted(splits)[0]
        databases = [
            ShotDatabase(shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool),
            ShotDatabase(
                shot_from_labeled(lf)
                for project, split in splits.items()
                if project != unseen
                for lf in split.shot_pool
            ),
        ]

        def choices():
            out = []
            for db in databases:
                for split in splits.values():
                    for i, labeled in enumerate(split.eval_set[::4]):
                        combo = ShotCombination(i % 4, 3 + 5 * (i % 3))
                        try:
                            shots = select_shots(
                                db, labeled.file.project, combo, strategy, random.Random(i),
                                target=labeled.file,
                            )
                        except InsufficientShotsError as exc:
                            out.append(str(exc))
                            continue
                        ids = [(s.source_project, s.labeled.file.content_key()) for s in shots]
                        out.append((labeled.file.project, ids, build_prompt(labeled.file, shots).text))
            return out

        prebuilt = choices()
        monkeypatch.setattr(ShotDatabase, "other_pool", rebuilt_other_pool)
        assert prebuilt == choices()
        # the other projects' pools were drawn from, for the unseen project too
        fallbacks = {
            project
            for project, ids, _ in (c for c in prebuilt if isinstance(c, tuple))
            if any(source != project for source, _ in ids)
        }
        assert fallbacks == set(splits)

    def test_cosine_ranks_as_per_call_vectors(self, six_datasets):
        """Indexed ranking picks the shots a frozen copy of the per-call ranking
        does, same-project pool first, then the other projects'."""

        def per_call_rank(target, pool, count):
            if count == 0 or not pool:
                return []
            docs = [" ".join(shot.labeled.file.names()) for shot in pool]
            vectors = tfidf_vectors([" ".join(target.names())] + docs)
            scores = [cosine(vectors[0], vec) for vec in vectors[1:]]
            order = sorted(range(len(docs)), key=lambda i: (-scores[i], i))
            return [pool[i] for i in order[:count]]

        def per_call_select(db, project, combo, target):
            picked = []
            for label, count in ((Label.VALID, combo.valid_count), (Label.MISCONFIG, combo.misconfig_count)):
                shots = per_call_rank(target, db.pool(project, label), count)
                shots += per_call_rank(target, db.other_pool(project, label), count - len(shots))
                picked += shots
            return picked

        splits = {project: split for project, (_, split) in six_datasets.items()}
        db = ShotDatabase(shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool)
        assert len(db.pool("tinyreg", Label.MISCONFIG)) == 3
        reached_fallback = set()
        for split in splits.values():
            for labeled in split.eval_set[::5]:
                project = labeled.file.project
                for combo in (DEFAULT_COMBINATION, ShotCombination(2, 5)):
                    shots = select_shots(
                        db, project, combo, SelectionStrategy.COSINE_SIMILARITY,
                        random.Random(0), target=labeled.file,
                    )
                    assert shots == per_call_select(db, project, combo, labeled.file)
                    reached_fallback |= {project for s in shots if s.source_project != project}
        assert "tinyreg" in reached_fallback
        total = sum(len(db.pool(project, Label.MISCONFIG)) for project in db.projects())
        with pytest.raises(InsufficientShotsError, match=f"requested {total + 1} shots, only {total} available"):
            select_shots(
                db, "tinyreg", ShotCombination(0, total + 1), SelectionStrategy.COSINE_SIMILARITY,
                random.Random(0), target=splits["tinyreg"].eval_set[0].file,
            )


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

"""Labeled corpus generation: valid files and single-fault misconfigured files.

Every produced file is checked against the rule oracle before it is accepted:
a misconfigured file must yield exactly its injected violation, a valid file
none at all. Generation retries with fresh draws when a random combination of
companion values trips an unrelated constraint, so the published corpus is
sound by construction. All randomness flows through one seeded generator,
making a dataset a pure function of (specs, seed).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .config_model import (
    ConfigEntry,
    ConfigFile,
    ConfigFormat,
    render_config,
)
from .constraints import (
    ALL_SUBCATEGORIES,
    Category,
    Comparator,
    DependencyConstraint,
    DependencyKind,
    ParameterSpec,
    SpecSet,
    Subcategory,
    ValueKind,
    assign_subcategories,
    compare_values,
    oracle_validate,
    value_violation,
)
from .errors import ConfigParseError, GenerationError, SpecError, complete, read_document

MAX_ATTEMPTS = 40
ENTRIES_PER_FILE = 8
SAMPLE_PER_SUBCATEGORY = 5


class Label(Enum):
    VALID = "valid"
    MISCONFIG = "misconfig"


@dataclass(frozen=True)
class InjectedFault:
    parameter: str
    subcategory: Subcategory
    reason: str

    @property
    def category(self):
        return self.subcategory.category


@dataclass(frozen=True)
class LabeledFile:
    """A config file with its ground truth; bucket records the sampling
    sub-category (for valid files too, where no fault exists), which for a
    misconfigured file is its fault's."""

    file: ConfigFile
    label: Label
    injected: InjectedFault | None = None
    bucket: Subcategory | None = None

    def __post_init__(self):
        if (self.label is Label.MISCONFIG) != (self.injected is not None):
            raise ValueError("misconfig label and injected fault must come together")
        if self.injected is None:
            return
        if self.file.get(self.injected.parameter) is None:
            raise ValueError(f"injected parameter {self.injected.parameter!r} missing from file")
        if self.bucket is not self.injected.subcategory:
            bucket = self.bucket and self.bucket.value
            raise ValueError(f"bucket {bucket!r} contradicts subcategory {self.injected.subcategory.value!r}")


@dataclass(frozen=True)
class DatasetSplit:
    shot_pool: tuple[LabeledFile, ...]
    eval_set: tuple[LabeledFile, ...]

    def __post_init__(self):
        object.__setattr__(self, "shot_pool", tuple(self.shot_pool))
        object.__setattr__(self, "eval_set", tuple(self.eval_set))
        shot_keys = {lf.file.content_key() for lf in self.shot_pool}
        eval_keys = {lf.file.content_key() for lf in self.eval_set}
        if shot_keys & eval_keys:
            raise ValueError("shot pool and eval set share file content")
        per_subcat: dict[Subcategory, int] = {}
        for lf in self.shot_pool:
            if lf.label is Label.MISCONFIG:
                sc = lf.injected.subcategory
                per_subcat[sc] = per_subcat.get(sc, 0) + 1
        if any(count > 1 for count in per_subcat.values()):
            raise ValueError("shot pool holds more than one misconfig per sub-category")


# --- single-value generators ---

_VALID_STRINGS = ("default", "primary", "standard", "worker", "production", "replica")
_VALID_PATHS = ("/var/log/app", "/data/store", "/tmp/cache", "/opt/service/run")
_VALID_URLS = (
    "hdfs://node-1:9000/data",
    "http://127.0.0.1:8080/status",
    "file:///var/tmp",
    "https://metrics.example.org/push",
)
_PLAUSIBLE_VERSION_VALUES = ("1", "true", "/tmp/data", "enabled")

_BAD_INT = ("true", "none", "fourty", "12x4", "1 000")
_BAD_FLOAT = ("abc", "1.2.3", "12,5", "half")
_BAD_BOOL = ("tru3", "y3s", "0n", "3nabled")
_BAD_PATH = ("/hello//world", "relative/path", "/a b/c", "no-slash", "//")
_BAD_URL = ("file///", "not a url", "://missing-scheme", "HTTPS://Example.org/x")
_BAD_IP = ("127.x0.0.1", "10.0.0", "1.2.3.4.5", "abc.def.ghi.jkl", "192.168..1")
_BAD_PORT = ("80a0", "http", "8 080", "port22")
_BAD_PERMISSION = ("rwxr-xr-x", "75", "07555", "7a7")
_BAD_OPTION_WORDS = ("yes", "no", "enabled", "disabled", "on", "off", "maybe")


def _plausible_window(lo: float, hi: float) -> tuple[float, float]:
    # huge data-type ranges make poor sample spaces; prefer a human-scale slice
    wlo, whi = max(lo, 0.0), min(hi, 1e6)
    if wlo > whi:
        return lo, hi
    return wlo, whi


def generate_valid_value(spec: ParameterSpec, rng: random.Random) -> str:
    """A value the oracle accepts for this parameter, sometimes the default."""
    for _ in range(MAX_ATTEMPTS):
        candidate = _draw_valid(spec, rng)
        if candidate is not None and value_violation(spec, candidate) is None:
            return candidate
    raise GenerationError(f"cannot generate a valid value for {spec.name!r}")


def _draw_valid(spec: ParameterSpec, rng: random.Random) -> str | None:
    if spec.default_value is not None and rng.random() < 0.5:
        return spec.default_value
    kind = spec.kind
    if kind in (ValueKind.INTEGER, ValueKind.LONG, ValueKind.PORT):
        lo, hi = _plausible_window(*spec.bounds)
        return str(rng.randint(int(lo), int(hi)))
    if kind is ValueKind.FLOAT:
        lo, hi = _plausible_window(*spec.bounds)
        return f"{rng.uniform(lo, hi):.6g}"
    if kind is ValueKind.BOOLEAN:
        return rng.choice(("true", "false"))
    if kind is ValueKind.STRING:
        return rng.choice(_VALID_STRINGS)
    if kind is ValueKind.PATH:
        return rng.choice(_VALID_PATHS)
    if kind is ValueKind.URL:
        return rng.choice(_VALID_URLS)
    if kind is ValueKind.IP_ADDRESS:
        return ".".join(str(rng.randint(1, 254)) for _ in range(4))
    if kind is ValueKind.PERMISSION:
        return "".join(rng.choice("01234567") for _ in range(3))
    if kind is ValueKind.ENUM:
        return rng.choice(spec.options)
    if kind is ValueKind.NUMBER_WITH_UNIT:
        return f"{rng.randint(1, 1024)}{rng.choice(spec.units)}"
    return None


def _invalid_candidates(
    spec: ParameterSpec, subcat: Subcategory, rng: random.Random
) -> list[str]:
    kind = spec.kind
    if subcat is Subcategory.SYNTAX_DATA_TYPE:
        if kind in (ValueKind.INTEGER, ValueKind.LONG):
            return list(_BAD_INT)
        if kind is ValueKind.FLOAT:
            return list(_BAD_FLOAT)
        if kind is ValueKind.BOOLEAN:
            return list(_BAD_BOOL)
        if kind is ValueKind.NUMBER_WITH_UNIT:
            return [f"{rng.randint(1, 512)}nounit", "64nounit", "sixty4kb"]
    if subcat is Subcategory.SYNTAX_PATH:
        return list(_BAD_PATH)
    if subcat is Subcategory.SYNTAX_URL:
        return list(_BAD_URL)
    if subcat is Subcategory.SYNTAX_IP_ADDRESS:
        return list(_BAD_IP)
    if subcat is Subcategory.SYNTAX_PORT:
        return list(_BAD_PORT)
    if subcat is Subcategory.SYNTAX_PERMISSION:
        return list(_BAD_PERMISSION)
    if subcat is Subcategory.RANGE_NUMERIC:
        lo, hi = spec.bounds
        if kind is ValueKind.FLOAT:
            if spec.numeric_range is None:
                return ["1e400", "-1e400"]
            return [f"{hi + abs(hi) + 1:g}", f"{lo - abs(lo) - 1:g}"]
        return [str(int(hi) + 1), str(int(lo) - 1)]
    if subcat is Subcategory.RANGE_BOOL:
        return list(_BAD_OPTION_WORDS)
    if subcat is Subcategory.RANGE_ENUM:
        return [w for w in ("fallback_mode", "unsupported", "none_of_the_above") if w not in spec.options]
    if subcat is Subcategory.RANGE_IP_ADDRESS:
        fixed = "256.123.45.6"
        octets = [str(rng.randint(0, 255)) for _ in range(4)]
        octets[rng.randrange(4)] = str(rng.randint(256, 999))
        return [fixed, ".".join(octets)]
    if subcat is Subcategory.RANGE_PORT:
        lo, hi = spec.bounds
        out = [str(rng.randint(int(hi) + 1, 99999))]
        if lo > 0:
            out.append(str(int(lo) - 1))
        return out
    if subcat is Subcategory.RANGE_PERMISSION:
        digits = [rng.choice("01234567") for _ in range(3)]
        digits[rng.randrange(3)] = rng.choice("89")
        return ["".join(digits), "789"]
    return []


def generate_invalid_value(
    spec: ParameterSpec, subcat: Subcategory, rng: random.Random
) -> str:
    """A value that violates exactly the given sub-category for this spec."""
    if subcat not in assign_subcategories(spec):
        raise GenerationError(
            f"sub-category {subcat.value} not applicable to {spec.name!r}"
        )
    candidates = _invalid_candidates(spec, subcat, rng)
    verified = [
        v
        for v in candidates
        if (hit := value_violation(spec, v)) is not None and hit.subcategory is subcat
    ]
    if not verified:
        raise GenerationError(
            f"no value violating {subcat.value} found for {spec.name!r}"
        )
    return rng.choice(verified)


# --- dependency pair construction ---


def _format_number(x: float, integral: bool) -> str:
    return str(int(round(x))) if integral else f"{x:.6g}"


def _draw_between(lo: float, hi: float, integral: bool, rng: random.Random) -> float:
    if integral:
        return float(rng.randint(int(-(-lo // 1)), int(hi // 1)))
    return rng.uniform(lo, hi)


def _ordered_pair(
    spec1: ParameterSpec,
    spec2: ParameterSpec,
    relation: Comparator,
    rng: random.Random,
) -> tuple[str, str] | None:
    """Construct in-range numeric values with v1 <relation> v2, or None when
    the windows make the relation unsatisfiable."""
    if spec1.bounds is None or spec2.bounds is None:
        return None
    lo1, hi1 = map(float, _plausible_window(*spec1.bounds))
    lo2, hi2 = map(float, _plausible_window(*spec2.bounds))
    integral = spec1.kind is not ValueKind.FLOAT and spec2.kind is not ValueKind.FLOAT
    step = 1.0 if integral else max(abs(hi1), abs(hi2), 1.0) * 1e-4

    if relation in (Comparator.GT, Comparator.GE):
        margin = step if relation is Comparator.GT else 0.0
        v2_hi = min(hi2, hi1 - margin)
        if v2_hi < lo2:
            return None
        v2 = _draw_between(lo2, v2_hi, integral, rng)
        v1 = _draw_between(max(lo1, v2 + margin), hi1, integral, rng)
        return _format_number(v1, integral), _format_number(v2, integral)
    if relation in (Comparator.LT, Comparator.LE):
        mirror = Comparator.GT if relation is Comparator.LT else Comparator.GE
        pair = _ordered_pair(spec2, spec1, mirror, rng)
        return None if pair is None else (pair[1], pair[0])
    if relation is Comparator.EQ:
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        v = _format_number(_draw_between(lo, hi, integral, rng), integral)
        return v, v
    v1 = _draw_between(lo1, hi1, integral, rng)
    v2 = _draw_between(lo2, hi2, integral, rng)
    if v1 == v2:
        v2 = v2 + step if v2 + step <= hi2 else v2 - step
    return _format_number(v1, integral), _format_number(v2, integral)


def _solve_pair(
    c: DependencyConstraint, specs: SpecSet, rng: random.Random, violate: bool
) -> dict[str, str]:
    """Values for (p1, p2): satisfying the constraint, or violating exactly it
    while both values stay individually valid."""
    spec1 = specs.parameters[c.p1]
    spec2 = specs.parameters[c.p2]
    want = not violate
    if c.kind is DependencyKind.CONTROL:
        # targeted equality first: the literal itself (when valid) satisfies
        if c.comparator is Comparator.EQ and want and value_violation(spec1, c.value) is None:
            return {c.p1: c.value, c.p2: generate_valid_value(spec2, rng)}
        for _ in range(MAX_ATTEMPTS * 5):
            v1 = generate_valid_value(spec1, rng)
            if compare_values(v1, c.comparator, c.value) == want:
                return {c.p1: v1, c.p2: generate_valid_value(spec2, rng)}
        raise GenerationError(f"cannot {'violate' if violate else 'satisfy'} control {c}")

    relation = c.comparator if want else c.comparator.negate()
    for _ in range(MAX_ATTEMPTS):
        pair = _ordered_pair(spec1, spec2, relation, rng)
        if pair is None:
            break  # non-numeric operands: fall back to drawing below
        v1, v2 = pair
        if (
            value_violation(spec1, v1) is None
            and value_violation(spec2, v2) is None
            and compare_values(v1, c.comparator, v2) == want
        ):
            return {c.p1: v1, c.p2: v2}
    for _ in range(MAX_ATTEMPTS * 5):
        v1 = generate_valid_value(spec1, rng)
        v2 = generate_valid_value(spec2, rng)
        if compare_values(v1, c.comparator, v2) == want:
            return {c.p1: v1, c.p2: v2}
    raise GenerationError(
        f"cannot {'violate' if violate else 'satisfy'} relation {c} over the value domain"
    )


# --- dataset construction ---


def _eligible_by_subcategory(specs: SpecSet) -> dict[Subcategory, list[str]]:
    eligible: dict[Subcategory, list[str]] = {sc: [] for sc in ALL_SUBCATEGORIES}
    for name, spec in specs.parameters.items():
        for sc in assign_subcategories(spec, specs.dependencies):
            eligible[sc].append(name)
    eligible[Subcategory.VERSION_PARAMETER_CHANGE] = sorted(
        name for name, version in specs.version_violations if version == specs.version
    )
    return {sc: names for sc, names in eligible.items() if names}


def _safe_companions(specs: SpecSet) -> list[str]:
    """The parameters, in spec order, that no constraint or version record names."""
    named = specs.version_known_names.union(*((c.p1, c.p2) for c in specs.dependencies))
    return [name for name in specs.parameters if name not in named]


def _constraint_for(specs: SpecSet, subcat: Subcategory, parameter: str) -> DependencyConstraint:
    for c in specs.dependencies:
        if c.carrier == parameter and c.subcategory is subcat:
            return c
    raise GenerationError(f"no {subcat.value} constraint for {parameter!r}")


class _FileBuilder:
    """Assembles oracle-checked labeled files for one project."""

    def __init__(self, specs: SpecSet, rng: random.Random, entries_per_file: int):
        self.specs = specs
        self.rng = rng
        self.entries_per_file = entries_per_file
        self.pool = _safe_companions(specs)
        self.seen_keys: set[str] = set()

    def _entry(self, name: str, value: str) -> ConfigEntry:
        spec = self.specs.parameters.get(name)
        return ConfigEntry(name, value, spec.description if spec else None)

    def _companions(self, exclude: set[str], count: int) -> list[ConfigEntry]:
        pool = [n for n in self.pool if n not in exclude]
        if len(pool) < count:
            raise SpecError(
                f"project {self.specs.project!r} needs at least {count} "
                "dependency-free parameters to pad generated files"
            )
        chosen = self.rng.sample(pool, count)
        return [
            self._entry(name, generate_valid_value(self.specs.parameters[name], self.rng))
            for name in chosen
        ]

    def _assemble(self, fixed: list[ConfigEntry]) -> ConfigFile:
        companions = self._companions(
            {e.name for e in fixed}, self.entries_per_file - len(fixed)
        )
        entries = fixed + companions
        self.rng.shuffle(entries)
        return ConfigFile(
            self.specs.project,
            self.specs.version,
            self.specs.file_format,
            tuple(entries),
        )

    def _accept(self, labeled: LabeledFile) -> bool:
        key = labeled.file.content_key()
        if key in self.seen_keys:
            return False
        self.seen_keys.add(key)
        return True

    def _fixed(self, subcat: Subcategory, parameter: str, fault: bool) -> list[ConfigEntry]:
        """The entries that carry the sub-category's fault on the parameter, or
        that a valid counterpart holds in their place."""
        if subcat.category is Category.DEPENDENCY:
            c = _constraint_for(self.specs, subcat, parameter)
            pair = _solve_pair(c, self.specs, self.rng, violate=fault)
            return [self._entry(n, v) for n, v in pair.items()]
        if subcat is Subcategory.VERSION_PARAMETER_CHANGE:
            # a version-affected parameter has no valid value at this
            # version, so its valid counterpart uses supported ones only
            if not fault:
                return []
            return [self._entry(parameter, self.rng.choice(_PLAUSIBLE_VERSION_VALUES))]
        spec = self.specs.parameters[parameter]
        if fault:
            return [self._entry(parameter, generate_invalid_value(spec, subcat, self.rng))]
        return [self._entry(parameter, generate_valid_value(spec, self.rng))]

    def misconfig_file(self, subcat: Subcategory, parameter: str) -> LabeledFile:
        """A file whose one violation is the sub-category's fault on the
        parameter, labelled with the oracle's own detail as its reason."""
        for _ in range(MAX_ATTEMPTS):
            file = self._assemble(self._fixed(subcat, parameter, fault=True))
            found = oracle_validate(file, self.specs)
            if len(found) == 1 and found[0].parameter == parameter and found[0].subcategory is subcat:
                fault = InjectedFault(parameter, subcat, found[0].detail)
                labeled = LabeledFile(file, Label.MISCONFIG, fault, bucket=subcat)
                if self._accept(labeled):
                    return labeled
        raise GenerationError(
            f"could not build a clean {subcat.value} misconfig for {parameter!r}"
        )

    def valid_file(self, subcat: Subcategory, parameter: str) -> LabeledFile:
        for _ in range(MAX_ATTEMPTS):
            file = self._assemble(self._fixed(subcat, parameter, fault=False))
            if not oracle_validate(file, self.specs):
                labeled = LabeledFile(file, Label.VALID, bucket=subcat)
                if self._accept(labeled):
                    return labeled
        raise GenerationError(f"could not build a violation-free file for {parameter!r}")


def build_dataset(specs: SpecSet, rng: random.Random | int = 0) -> DatasetSplit:
    """Sample parameters per sub-category and emit the shot pool / eval set.

    Sub-categories with at least SAMPLE_PER_SUBCATEGORY eligible parameters
    contribute one shot file and the rest as eval files; smaller ones send
    everything to the eval set. Valid counterparts mirror the misconfig files
    one for one.
    """
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    builder = _FileBuilder(specs, rng, ENTRIES_PER_FILE)
    eligible = _eligible_by_subcategory(specs)

    shot_pool: list[LabeledFile] = []
    eval_set: list[LabeledFile] = []
    for subcat in ALL_SUBCATEGORIES:
        names = eligible.get(subcat)
        if not names:
            continue
        sample = rng.sample(names, min(SAMPLE_PER_SUBCATEGORY, len(names)))
        if len(sample) >= SAMPLE_PER_SUBCATEGORY:
            shot_param = rng.choice(sample)
            eval_params = [p for p in sample if p != shot_param]
        else:
            shot_param = None
            eval_params = sample
        if shot_param is not None:
            shot_pool.append(builder.misconfig_file(subcat, shot_param))
            shot_pool.append(builder.valid_file(subcat, shot_param))
        for param in eval_params:
            eval_set.append(builder.misconfig_file(subcat, param))
            eval_set.append(builder.valid_file(subcat, param))
    return DatasetSplit(tuple(shot_pool), tuple(eval_set))


# --- corpus on disk ---

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1
# the JSON types of each manifest key, and of each key of a file row
_MANIFEST_KEYS = {"schema_version": (int,), "project": (str,), "version": (str,), "files": ([dict],)}
_ROW_KEYS = {
    "path": (str,), "split": (str,), "label": (str,), "bucket": (str,), "format": (str,),
    "entry_count": (int,), "content_key": (str,),
    # misconfig rows only
    "parameter": (str,), "category": (str,), "subcategory": (str,), "reason": (str,),
}
# the keys every file row must hold, and a misconfig row besides
_ROW_REQUIRED = ("path", "split", "label", "bucket", "format", "content_key")
_MISCONFIG_ROW_REQUIRED = _ROW_REQUIRED + ("parameter", "subcategory", "reason")
# the values each enumerated key of a file row may hold, and what they read as
_ROW_VALUES = {
    "split": {"shot_pool", "eval_set"},
    "label": {label.value: label for label in Label},
    "format": {fmt.value: fmt for fmt in ConfigFormat},
    "bucket": {"unbucketed": None, **{sc.value: sc for sc in Subcategory}},
    "subcategory": {sc.value: sc for sc in Subcategory},
}


def write_dataset(split: DatasetSplit, root: str | Path, specs: SpecSet) -> Path:
    """Emit <root>/<project>/<split>/<subcategory>/<id>.<ext> plus a manifest."""
    project_dir = Path(root) / specs.project
    rows = []
    counters: dict[tuple[str, str, str], int] = {}
    folders: set[str] = set()  # made so far
    for split_name, files in (("shot_pool", split.shot_pool), ("eval_set", split.eval_set)):
        for lf in files:
            bucket = lf.bucket.value if lf.bucket else "unbucketed"
            slug = bucket.replace("/", "_")
            prefix = "m" if lf.label is Label.MISCONFIG else "v"
            counter_key = (split_name, slug, prefix)
            index = counters.get(counter_key, 0)
            counters[counter_key] = index + 1
            ext = lf.file.format.value
            folder = f"{project_dir}/{split_name}/{slug}"
            if folder not in folders:
                os.makedirs(folder, exist_ok=True)
                folders.add(folder)
            rel = f"{split_name}/{slug}/{prefix}{index:03d}.{ext}"
            text = render_config(lf.file, lf.file.format)  # before the file is truncated
            with open(f"{project_dir}/{rel}", "w", encoding="utf-8") as out:
                out.write(text)
            row = {
                "path": rel,
                "split": split_name,
                "label": lf.label.value,
                "bucket": bucket,
                "format": lf.file.format.value,
                "entry_count": len(lf.file.entries),
                "content_key": lf.file.content_key(),
            }
            if lf.injected is not None:
                row["parameter"] = lf.injected.parameter
                row["category"] = lf.injected.category.value
                row["subcategory"] = lf.injected.subcategory.value
                row["reason"] = lf.injected.reason
            rows.append(row)
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "project": specs.project,
        "version": specs.version,
        "files": rows,
    }
    (project_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return project_dir


def load_dataset(project_dir: str | Path) -> tuple[str, DatasetSplit]:
    """Read one project's corpus back from disk.

    Raises SpecError when the manifest or a row is malformed or unreadable, a
    misconfig row's bucket or category contradicts its subcategory, a row's
    path leaves the project directory, or a listed file does not parse or no
    longer matches its row's content_key; SchemaVersionError for another schema.
    """
    manifest_path = Path(project_dir) / MANIFEST_NAME
    try:
        return _read_dataset(manifest_path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed dataset manifest {manifest_path}: {exc!r}") from exc


def _read_dataset(manifest_path: Path) -> tuple[str, DatasetSplit]:
    from .config_model import load_config_file  # per call, so a patch of config_model's name applies

    project_dir = manifest_path.parent
    what = f"dataset manifest {manifest_path}"
    manifest = read_document(manifest_path, "dataset manifest", MANIFEST_SCHEMA_VERSION)
    complete(manifest, _MANIFEST_KEYS, what, ("project", "version", "files"))
    project = manifest["project"]
    version = manifest["version"]
    shots: list[LabeledFile] = []
    evals: list[LabeledFile] = []
    for i, row in enumerate(manifest["files"]):
        where = f"{what} files[{i}]"
        misconfig = row.get("label") == Label.MISCONFIG.value
        complete(row, _ROW_KEYS, where, _MISCONFIG_ROW_REQUIRED if misconfig else _ROW_REQUIRED)
        for key, known in _ROW_VALUES.items():
            if key in row and row[key] not in known:
                raise SpecError(f"{where}: unknown {key} {row[key]!r}")
        rel = row["path"]
        if os.path.isabs(rel) or ".." in rel.split("/"):
            raise SpecError(f"{where}: path {rel!r} leaves the project directory")
        path = f"{project_dir}/{rel}"
        try:
            file = load_config_file(path, project, version, _ROW_VALUES["format"][row["format"]])
        except OSError as exc:
            raise SpecError(f"{where}: cannot read {path}: {exc.strerror or exc}") from exc
        except ConfigParseError as exc:
            raise SpecError(f"{where}: cannot read {path}: {exc}") from exc
        if file.content_key() != row["content_key"]:
            raise SpecError(f"{path} does not match its manifest content_key")
        label, bucket = _ROW_VALUES["label"][row["label"]], _ROW_VALUES["bucket"][row["bucket"]]
        injected = None
        if label is Label.MISCONFIG:
            subcategory = _ROW_VALUES["subcategory"][row["subcategory"]]
            category = subcategory.category.value
            if row.get("category", category) != category:
                raise SpecError(f"{where}: category contradicts subcategory {subcategory.value!r}")
            injected = InjectedFault(row["parameter"], subcategory, row["reason"])
        try:
            labeled = LabeledFile(file, label, injected, bucket=bucket)
        except ValueError as exc:  # the injected parameter is not in the file, or the bucket is wrong
            raise SpecError(f"{where}: {exc}") from exc
        (shots if row["split"] == "shot_pool" else evals).append(labeled)
    return project, DatasetSplit(tuple(shots), tuple(evals))

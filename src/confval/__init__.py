"""confval: LLM-backed configuration validation plus its benchmark harness."""

from .backend import (
    BackendConfig,
    HttpBackend,
    MockBackend,
    MockBehavior,
    MockScript,
    query,
    query_batch,
    truth_map,
)
from .config_model import (
    ConfigDiff,
    ConfigEntry,
    ConfigFile,
    ConfigFormat,
    compress,
    diff_to_snippet,
    parse_config,
    render_config,
)
from .constraints import (
    Category,
    Comparator,
    DependencyConstraint,
    DependencyKind,
    ParameterSpec,
    SpecSet,
    Subcategory,
    ValueKind,
    VersionChange,
    Violation,
    assign_subcategories,
    build_spec_set,
    check_dependency,
    load_spec_set,
    oracle_validate,
    save_spec_set,
)
from .errors import (
    BackendError,
    ConfigParseError,
    ConfvalError,
    GenerationError,
    InsufficientShotsError,
    ResponseFormatError,
    SchemaVersionError,
    SpecError,
    TokenBudgetExceededError,
    ValidationFailedError,
)
from .evaluation import (
    Cell,
    ConfusionMatrix,
    Level,
    MetricsReport,
    bucket_by_param_count,
    build_report,
    f1,
    macro_average,
    micro_f1_by_subcategory,
    precision,
    recall,
    run_evaluation,
    run_sweep,
    score_file,
)
from .misconfig_gen import (
    DatasetSplit,
    InjectedFault,
    Label,
    LabeledFile,
    build_dataset,
    generate_invalid_value,
    generate_valid_value,
    load_dataset,
    write_dataset,
)
from .pipeline import PipelineSettings, Verdict, validate_file, vote
from .prompting import (
    DEFAULT_COMBINATION,
    DEFAULT_QUESTION_TEMPLATE,
    Prompt,
    SelectionStrategy,
    Shot,
    ShotCombination,
    ShotDatabase,
    build_prompt,
    enumerate_shot_combinations,
    estimate_tokens,
    fit_to_budget,
    load_corpus,
    load_shot_db,
    select_shots,
    shot_from_labeled,
)
from .responses import ValidationResponse, parse_response, validate_response

__version__ = "0.1.0"

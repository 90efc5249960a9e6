"""confval: LLM-backed configuration validation plus its benchmark harness.

The package exports the names the README's library example uses; everything
else is imported from its submodule (confval.backend, confval.evaluation, ...).
"""

from .backend import MockBackend, MockBehavior, MockScript, truth_map
from .constraints import load_spec_set
from .misconfig_gen import build_dataset
from .pipeline import PipelineSettings, validate_file
from .prompting import ShotDatabase, shot_from_labeled

__version__ = "0.1.0"

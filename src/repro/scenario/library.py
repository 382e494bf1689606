"""The named scenario library: specs shipped under ``scenarios/``.

Every ``*.json`` (and, with PyYAML present, ``*.yaml``/``*.yml``) file
in the repository's top-level ``scenarios/`` directory is a scenario;
its ``name`` field is how the CLI and the CI matrix refer to it.  Set
``REPRO_SCENARIO_DIR`` to point somewhere else (tests, private decks).
"""

from __future__ import annotations

import os
from pathlib import Path

from .spec import ScenarioSpec, ScenarioSpecError, load_spec

ENV_VAR = "REPRO_SCENARIO_DIR"
#: The pinned per-seed digests of the shipped deck (not a scenario).
DIGESTS_FILE = "DIGESTS.json"


def scenario_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    # src/repro/scenario/library.py -> repository root / scenarios
    return Path(__file__).resolve().parents[3] / "scenarios"


def _spec_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        return []
    patterns = ["*.json"]
    try:
        import yaml  # noqa: F401 - probe only
        patterns += ["*.yaml", "*.yml"]
    except ImportError:  # pragma: no cover - PyYAML ships in the image
        pass
    files: list[Path] = []
    for pattern in patterns:
        files.extend(directory.glob(pattern))
    return sorted(path for path in files if path.name != DIGESTS_FILE)


def load_library(directory: Path | None = None) -> dict[str, ScenarioSpec]:
    """All shipped scenarios by name; a bad file is a loud error."""
    directory = directory if directory is not None else scenario_dir()
    library: dict[str, ScenarioSpec] = {}
    for path in _spec_files(directory):
        spec = load_spec(str(path))
        if spec.name in library:
            raise ScenarioSpecError(
                f"duplicate scenario name {spec.name!r} (in {path})"
            )
        library[spec.name] = spec
    return library


def get_scenario(name: str,
                 directory: Path | None = None) -> ScenarioSpec:
    library = load_library(directory)
    try:
        return library[name]
    except KeyError:
        known = ", ".join(sorted(library)) or "(none found)"
        raise ScenarioSpecError(
            f"no scenario named {name!r}; shipped scenarios: {known}"
        ) from None

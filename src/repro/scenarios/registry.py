"""Scenario registry: declarative, spec-driven environment families.

Sim2Rec's claim is policy transfer across heterogeneous environments, so
environment *families* are first-class objects here, not hand-wired
``make_*`` helpers. A family is registered once with a builder and a
full default parameter set; after that, any population — training
simulators plus the held-out target environment — is built from a pure
config dict:

    from repro.scenarios import make_scenario

    scenario = make_scenario({"family": "slate", "num_envs": 240,
                              "num_users": 8, "seed": 3})
    envs = scenario.make_train_envs()      # 240 SlateRecEnv instances
    target = scenario.make_target_env()    # the unseen "real world"

Specs are closed under round-tripping: :meth:`ScenarioSpec.to_dict`
produces a JSON-compatible dict (defaults resolved, tuples normalised to
lists) and ``make_scenario(scenario.spec.to_dict()).spec ==
scenario.spec`` holds for every registered family — the property the CI
registry checks enforce. Unknown families, unknown parameters and empty
populations (``num_envs``/``num_users``/... < 1) are rejected with a
:class:`ValueError` at spec time, before any environment is constructed.

The built-in families (``lts``, ``dpr``, ``slate``) are registered in
:mod:`repro.scenarios.families`; new families register themselves with
the :func:`register_scenario` decorator — see ``docs/scenarios.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from ..envs.base import MultiUserEnv

#: Parameters that size an environment population; every registered
#: family's spec is validated to keep them >= 1 so an empty population
#: fails here with a clear message instead of deep inside VecEnvPool.
POPULATION_KEYS = ("num_envs", "num_users", "num_cities", "drivers_per_city", "horizon")


def _jsonify(value: Any) -> Any:
    """Normalise spec values to their JSON-compatible form.

    Tuples/arrays become lists and numpy scalars become plain Python
    numbers, so specs sized from numpy arithmetic round-trip through
    JSON and pass the population validation like their literal
    counterparts.
    """
    if isinstance(value, (tuple, list)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass
class ScenarioSpec:
    """A fully-resolved scenario description: family + parameters + seed.

    ``params`` always carries the *complete* parameter set of the family
    (defaults filled in at normalisation), so two specs compare equal iff
    they build identical populations, and :meth:`to_dict` /
    :meth:`from_dict` round-trip exactly.
    """

    family: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"family": self.family, "seed": self.seed}
        for key in sorted(self.params):
            data[key] = _jsonify(self.params[key])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        family = data.pop("family", None)
        if not family:
            raise ValueError("scenario spec needs a 'family' key")
        seed = int(data.pop("seed", 0))
        return cls(family=str(family), params=data, seed=seed)


SpecLike = Union[str, Mapping[str, Any], ScenarioSpec]


class Scenario:
    """A built environment family: factories for the train population
    and the target environment, plus the dimensions a policy needs.

    ``make_train_env(index, seed_offset)`` must be deterministic in its
    arguments (same spec → same env), so scenario-built populations are
    reproducible and shippable to worker processes.

    Two attributes, set by the family's builder, tell
    :class:`~repro.scenarios.ScenarioTrainer` how to train on it:

    - ``resample_users``: redraw the sampled env's per-user gaps
      (``env.resample_user_gaps()``) on every draw — Fig. 7's
      unlimited-user simulators;
    - ``corpus_seed_offset``: the seed offset of the fresh training-env
      copies the SADAE pretraining corpus is collected from.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        num_train_envs: int,
        state_dim: int,
        action_dim: int,
        make_train_env: Callable[..., MultiUserEnv],
        make_target_env: Callable[..., MultiUserEnv],
        description: str = "",
        resample_users: bool = False,
        corpus_seed_offset: int = 3000,
    ):
        self.spec = spec
        self.num_train_envs = int(num_train_envs)
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self._make_train_env = make_train_env
        self._make_target_env = make_target_env
        self.description = description
        self.resample_users = resample_users
        self.corpus_seed_offset = int(corpus_seed_offset)
        if self.num_train_envs < 1:
            raise ValueError(
                f"scenario {spec.family!r} built an empty training population "
                f"(num_train_envs={num_train_envs}); check the spec's env counts"
            )

    def make_train_env(self, index: int, seed_offset: int = 0) -> MultiUserEnv:
        """Instantiate the ``index``-th training simulator."""
        return self._make_train_env(index, seed_offset)

    def make_train_envs(self, seed_offset: int = 0) -> List[MultiUserEnv]:
        return [self.make_train_env(i, seed_offset) for i in range(self.num_train_envs)]

    def make_target_env(self, seed_offset: int = 0) -> MultiUserEnv:
        """The held-out deployment environment of this scenario."""
        return self._make_target_env(seed_offset)

    def __repr__(self) -> str:  # pragma: no cover - debug sugar
        return (
            f"Scenario({self.spec.family!r}, envs={self.num_train_envs}, "
            f"state_dim={self.state_dim}, action_dim={self.action_dim})"
        )


@dataclass
class ScenarioFamily:
    """One registered family: builder + defaults + description."""

    name: str
    builder: Callable[[ScenarioSpec], Scenario]
    description: str
    defaults: Dict[str, Any]


_REGISTRY: Dict[str, ScenarioFamily] = {}


def register_scenario(
    name: str,
    *,
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
) -> Callable[[Callable[[ScenarioSpec], Scenario]], Callable[[ScenarioSpec], Scenario]]:
    """Decorator registering a scenario family builder.

    ``defaults`` is the family's *complete* parameter schema: every
    parameter a spec may set, with its default value. Unknown keys in an
    incoming spec are rejected against it.
    """

    def decorate(builder: Callable[[ScenarioSpec], Scenario]):
        if name in _REGISTRY:
            raise ValueError(f"scenario family {name!r} is already registered")
        doc = (builder.__doc__ or "").strip()
        _REGISTRY[name] = ScenarioFamily(
            name=name,
            builder=builder,
            description=description or (doc.splitlines()[0] if doc else ""),
            defaults={key: _jsonify(value) for key, value in dict(defaults or {}).items()},
        )
        return builder

    return decorate


def unregister_scenario(name: str) -> None:
    """Remove a family (tests register throwaway families)."""
    _REGISTRY.pop(name, None)


def list_scenarios() -> List[str]:
    """Names of every registered family, sorted."""
    return sorted(_REGISTRY)


def scenario_defaults(name: str) -> Dict[str, Any]:
    """The full default parameter set of a family (a copy)."""
    return dict(_get_family(name).defaults)


def scenario_description(name: str) -> str:
    return _get_family(name).description


def _get_family(name: str) -> ScenarioFamily:
    family = _REGISTRY.get(name)
    if family is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValueError(f"unknown scenario family {name!r}; registered: {known}")
    return family


def normalize_spec(spec: SpecLike) -> ScenarioSpec:
    """Resolve a name / config dict / spec into a fully-defaulted spec.

    Fills family defaults, normalises values to JSON-compatible form,
    rejects unknown families and parameters, and validates the
    population-sizing keys (:data:`POPULATION_KEYS`) so empty
    populations fail with a clear error here.
    """
    if isinstance(spec, str):
        spec = ScenarioSpec(family=spec)
    elif isinstance(spec, Mapping):
        spec = ScenarioSpec.from_dict(spec)
    elif not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"expected a family name, config dict or ScenarioSpec, got {type(spec).__name__}"
        )
    family = _get_family(spec.family)
    params = dict(family.defaults)
    incoming = {key: _jsonify(value) for key, value in spec.params.items()}
    unknown = sorted(set(incoming) - set(params))
    if unknown:
        raise ValueError(
            f"scenario {spec.family!r}: unknown parameter(s) {unknown}; "
            f"accepted: {sorted(params)}"
        )
    params.update(incoming)
    for key in POPULATION_KEYS:
        if key in params:
            value = params[key]
            # bool is an int subclass; True sizing a population is a bug.
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"scenario {spec.family!r}: {key} must be an integer >= 1 "
                    f"(got {value!r}) — an empty environment population cannot "
                    "be built"
                )
    return ScenarioSpec(family=spec.family, params=params, seed=int(spec.seed))


def make_scenario(spec: SpecLike) -> Scenario:
    """Build a :class:`Scenario` from a family name, config dict or spec.

    The returned scenario carries its normalised spec:
    ``make_scenario(s.spec.to_dict()).spec == s.spec`` for every family
    (the registry round-trip contract).
    """
    normalized = normalize_spec(spec)
    family = _get_family(normalized.family)
    scenario = family.builder(normalized)
    scenario.spec = normalized
    if not scenario.description:
        scenario.description = family.description
    return scenario

"""Shared machinery for solver configuration dataclasses.

Every solver in the package carries a frozen ``*Config`` dataclass
(:class:`~repro.solvers.chocoq.ChocoQConfig`,
:class:`~repro.solvers.penalty_qaoa.PenaltyQAOAConfig`,
:class:`~repro.solvers.cyclic_qaoa.CyclicQAOAConfig`,
:class:`~repro.solvers.hea.HEAConfig`).  They all mix in
:class:`SolverConfig`, which provides

* the validation shared by every solver — ``num_layers`` must be positive,
  ``(backend, subspace_limit)`` must name a known state layout, and a
  ``noise`` field must describe a valid :class:`NoiseConfig` — run
  once from ``__post_init__`` instead of being re-implemented in each
  constructor, plus a ``_validate`` hook for solver-specific rules;
* a ``to_dict()`` / ``from_dict()`` round-trip over the dataclass fields
  (nested configs such as ``noise`` serialize recursively), the
  serialization contract the :mod:`repro.run` experiment runner uses to
  persist and content-hash run specifications;
* ``replace(**overrides)`` for building a tweaked copy, the primitive the
  ``repro.solve`` facade uses to merge keyword overrides into a base config.

:class:`NoiseConfig` itself lives here too: it is the *serializable
description* of a device-noise scenario — the executable
:class:`~repro.qcircuit.noise.NoiseModel` it builds stays in the qcircuit
layer — so a noisy run is addressable as pure data exactly like every other
config knob.

Unknown keys are rejected with :class:`~repro.exceptions.SolverError` (not a
bare ``TypeError``) so a typo in a serialized experiment spec fails with the
same error family as every other solver misconfiguration.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Mapping, TypeVar

from repro.exceptions import NoiseModelError, SolverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.qcircuit.noise import DeviceProfile, NoiseModel

ConfigT = TypeVar("ConfigT", bound="SolverConfig")


def validate_positive_layers(num_layers: int) -> None:
    """The ``num_layers`` check shared by every solver config."""
    if num_layers < 1:
        raise SolverError("num_layers must be positive")


class SolverConfig:
    """Mixin for frozen solver-config dataclasses.

    Subclasses are ``@dataclass(frozen=True)`` declarations; this base
    supplies shared validation and the dict round-trip.  Solver-specific
    validation goes in :meth:`_validate`, not ``__post_init__`` (which the
    base owns so the shared checks always run).
    """

    def __post_init__(self) -> None:
        field_names = {field.name for field in dataclasses.fields(self)}
        if "num_layers" in field_names:
            validate_positive_layers(self.num_layers)  # type: ignore[attr-defined]
        if "backend" in field_names:
            # Imported lazily: variational.py is a heavier module and config
            # classes are imported by everything.
            from repro.solvers.variational import validate_backend_choice

            validate_backend_choice(
                self.backend,  # type: ignore[attr-defined]
                getattr(self, "subspace_limit", None),
            )
        if "noise" in field_names:
            # Normalise the serialized forms (device name, dict) into one
            # validated NoiseConfig so every downstream consumer sees a
            # single type.  object.__setattr__ because subclasses are frozen.
            object.__setattr__(
                self, "noise", as_noise_config(self.noise)  # type: ignore[attr-defined]
            )
        self._validate()

    def _validate(self) -> None:
        """Solver-specific validation hook (default: nothing extra)."""

    # ------------------------------------------------------------------
    # Serialization round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The config as a plain JSON-serializable dict of its fields.

        Nested configs (a ``noise`` field holding a :class:`NoiseConfig`)
        serialize recursively, so the output is always plain JSON types.
        """
        data: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            data[field.name] = value.to_dict() if isinstance(value, SolverConfig) else value
        return data

    @classmethod
    def from_dict(cls: type[ConfigT], data: Mapping[str, Any]) -> ConfigT:
        """Rebuild a config from :meth:`to_dict` output (validating keys)."""
        cls._check_known_keys(data)
        return cls(**dict(data))

    def replace(self: ConfigT, **overrides: Any) -> ConfigT:
        """A copy with ``overrides`` applied (re-validated on construction)."""
        self._check_known_keys(overrides)
        return dataclasses.replace(self, **overrides)

    @classmethod
    def _check_known_keys(cls, data: Mapping[str, Any]) -> None:
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SolverError(
                f"unknown {cls.__name__} field(s) {unknown}; known fields: {sorted(known)}"
            )


# ---------------------------------------------------------------------------
# Serializable noise scenarios
# ---------------------------------------------------------------------------

NOISE_MODES = ("trajectory", "analytical")

#: Field names a NoiseConfig may use to override profile error rates.
_NOISE_RATE_FIELDS = ("single_qubit_error", "two_qubit_error", "readout_error")


@dataclasses.dataclass(frozen=True)
class NoiseConfig(SolverConfig):
    """Serializable description of a device-noise scenario.

    This is the pure-data form of a :class:`~repro.qcircuit.noise.NoiseModel`:
    it rides inside solver configs, :class:`~repro.run.RunSpec` grids and
    JSONL caches, and is materialised into an executable model (seeded
    deterministically by the engine) only at run time.

    Attributes:
        device: name of a calibrated profile from
            :data:`~repro.qcircuit.noise.DEVICE_PROFILES` (``"fez"``,
            ``"osaka"``, ``"sherbrooke"``; case-insensitive), or ``None``
            to build a custom profile purely from the explicit rates below.
        single_qubit_error: depolarizing error probability per 1-qubit gate;
            ``None`` keeps the device profile's rate (0 without a device).
        two_qubit_error: native 2-qubit gate error probability; ``None``
            keeps the profile's rate.
        readout_error: per-bit readout flip probability; ``None`` keeps the
            profile's rate.
        mode: ``"trajectory"`` samples Monte-Carlo Pauli-error trajectories
            (:meth:`~repro.qcircuit.noise.NoiseModel.sample`);
            ``"analytical"`` uses the first-order success-probability
            shortcut (:meth:`~repro.qcircuit.noise.NoiseModel
            .sample_analytical`), much cheaper on deep circuits.
        trajectories: trajectory count for ``mode="trajectory"``.
        readout: ``False`` disables readout error entirely (overriding both
            the profile and an explicit ``readout_error``).
    """

    device: str | None = None
    single_qubit_error: float | None = None
    two_qubit_error: float | None = None
    readout_error: float | None = None
    mode: str = "trajectory"
    trajectories: int = 16
    readout: bool = True

    def _validate(self) -> None:
        if self.mode not in NOISE_MODES:
            raise SolverError(
                f"noise mode must be one of {NOISE_MODES}, got {self.mode!r}"
            )
        if self.trajectories < 1:
            raise SolverError("trajectories must be positive")
        if self.device is None and all(
            getattr(self, name) is None for name in _NOISE_RATE_FIELDS
        ):
            raise SolverError(
                "a NoiseConfig needs a device profile name or at least one "
                "explicit error rate"
            )
        for name in _NOISE_RATE_FIELDS:
            rate = getattr(self, name)
            if rate is not None and not 0.0 <= float(rate) <= 1.0:
                raise SolverError(f"{name} must be within [0, 1], got {rate!r}")
        if self.device is not None:
            from repro.qcircuit.noise import get_device_profile

            try:
                profile = get_device_profile(self.device)
            except NoiseModelError as error:
                # Re-raise in the config-error family so a typoed device in a
                # serialized spec fails like any other bad config field.
                raise SolverError(str(error)) from error
            # Canonicalise case so "Fez" and "fez" are one scenario — equal
            # as configs and identical in a RunSpec content hash.
            object.__setattr__(self, "device", profile.name)

    def profile(self) -> "DeviceProfile":
        """The resolved :class:`~repro.qcircuit.noise.DeviceProfile`.

        Starts from the named device profile (or an error-free custom base),
        applies the explicit rate overrides, and zeroes the readout error
        when the ``readout`` toggle is off.
        """
        from repro.qcircuit.noise import DeviceProfile, get_device_profile

        if self.device is not None:
            base = get_device_profile(self.device)
        else:
            base = DeviceProfile(
                name="custom",
                single_qubit_error=0.0,
                two_qubit_error=0.0,
                readout_error=0.0,
            )
        overrides: dict[str, float] = {
            name: float(getattr(self, name))
            for name in _NOISE_RATE_FIELDS
            if getattr(self, name) is not None
        }
        if not self.readout:
            overrides["readout_error"] = 0.0
        return dataclasses.replace(base, **overrides) if overrides else base

    def build_model(self, seed=None) -> "NoiseModel":
        """An executable :class:`~repro.qcircuit.noise.NoiseModel`.

        ``seed`` accepts anything :func:`numpy.random.default_rng` does —
        the engine passes a dedicated ``SeedSequence`` child so noisy runs
        are reproducible across process boundaries.
        """
        from repro.qcircuit.noise import NoiseModel

        return NoiseModel(self.profile(), seed=seed)


def as_noise_config(value: Any) -> NoiseConfig | None:
    """Normalise any accepted noise spelling into a ``NoiseConfig`` (or None).

    Accepts ``None``, a :class:`NoiseConfig`, a device-profile name
    (``"fez"``), or the dict form a serialized spec carries.
    """
    if value is None or isinstance(value, NoiseConfig):
        return value
    if isinstance(value, str):
        return NoiseConfig(device=value)
    if isinstance(value, Mapping):
        return NoiseConfig.from_dict(value)
    raise SolverError(
        "noise must be a NoiseConfig, a device name, a dict or None, "
        f"got {type(value).__name__}"
    )


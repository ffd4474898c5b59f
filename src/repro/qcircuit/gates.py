"""Gate library for the circuit IR.

Each gate is represented as a :class:`Gate` instance carrying its name, the
number of qubits it acts on, its rotation angles (real numbers, checked when
the gate is built) and a way to materialise its unitary matrix.

The library covers everything the paper's circuits need:

* single-qubit gates: ``I, X, Y, Z, H, S, Sdg, T, Tdg, RX, RY, RZ, P`` (phase)
* two-qubit gates: ``CX, CZ, CP, SWAP, RXX, RYY, RZZ``
* multi-qubit gates: ``MCX`` (multi-controlled X), ``MCP`` (multi-controlled
  phase) — the building blocks of the Lemma-2 decomposition
* ``UnitaryGate`` — an arbitrary dense unitary, used by the Trotter baseline
  and by exact Hamiltonian evolution.

Matrices follow the little-endian qubit-ordering convention used throughout
the simulator: qubit 0 is the least-significant bit of a basis-state index.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import GateError

#: The angle types a gate accepts: real Python and NumPy scalars, exactly the
#: types the transpile memo fingerprints.
_REAL_ANGLE_TYPES = (int, float, np.integer, np.floating)

# ---------------------------------------------------------------------------
# Constant matrices
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
    )


def _phase(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)


def _rzz(theta: float) -> np.ndarray:
    diag = np.array(
        [
            cmath.exp(-1j * theta / 2),
            cmath.exp(1j * theta / 2),
            cmath.exp(1j * theta / 2),
            cmath.exp(-1j * theta / 2),
        ]
    )
    return np.diag(diag)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    mat = np.eye(4, dtype=complex) * c
    mat[0, 3] = mat[3, 0] = -1j * s
    mat[1, 2] = mat[2, 1] = -1j * s
    return mat


def _ryy(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    mat = np.eye(4, dtype=complex) * c
    mat[0, 3] = mat[3, 0] = 1j * s
    mat[1, 2] = mat[2, 1] = -1j * s
    return mat


# Local operand convention: operand 0 (the control) is the least-significant
# bit of the 2-qubit block index, operand 1 (the target) the most-significant.
# CX maps the local index c + 2t to c + 2(t XOR c).
_CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)

_CZ = np.diag([1, 1, 1, -1]).astype(complex)

_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def _controlled_phase(theta: float) -> np.ndarray:
    return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)


# ---------------------------------------------------------------------------
# Gate specification table
# ---------------------------------------------------------------------------

_SINGLE_QUBIT_CONST = {
    "id": _I2,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "h": _H,
    "s": _S,
    "sdg": _SDG,
    "t": _T,
    "tdg": _TDG,
    "sx": _SX,
}

_SINGLE_QUBIT_ROTATION = {
    "rx": _rx,
    "ry": _ry,
    "rz": _rz,
    "p": _phase,
}

_TWO_QUBIT_CONST = {
    "cx": _CX,
    "cz": _CZ,
    "swap": _SWAP,
}

_TWO_QUBIT_ROTATION = {
    "cp": _controlled_phase,
    "rxx": _rxx,
    "ryy": _ryy,
    "rzz": _rzz,
}

# Gate names the transpiler treats as "basic" for NISQ deployment.
BASIS_GATES = frozenset({"id", "x", "sx", "h", "rz", "cx", "cz"})

# Approximate gate durations in seconds, loosely modelled on IBM Heron/Eagle
# specifications; used by the latency model (Fig. 11).
DEFAULT_GATE_DURATIONS = {
    "id": 35e-9,
    "x": 35e-9,
    "sx": 35e-9,
    "h": 35e-9,
    "rz": 0.0,  # virtual-Z
    "p": 0.0,
    "rx": 35e-9,
    "ry": 35e-9,
    "cx": 300e-9,
    "cz": 90e-9,
    "cp": 300e-9,
    "swap": 900e-9,
    "rxx": 350e-9,
    "ryy": 350e-9,
    "rzz": 350e-9,
    "measure": 1200e-9,
    "barrier": 0.0,
}


@dataclass(frozen=True)
class Gate:
    """An instance of a quantum gate.

    Attributes:
        name: lower-case gate identifier (``"h"``, ``"cx"``, ``"mcx"`` ...).
        num_qubits: number of qubits the gate acts on.
        params: rotation angles, kept as the objects the caller passed.
        matrix: explicit unitary for ``"unitary"`` gates, ``None`` otherwise.
        num_controls: for ``mcx`` / ``mcp``, the number of control qubits.
        label: optional human-readable annotation (kept through transpilation).
    """

    name: str
    num_qubits: int
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, compare=False)
    num_controls: int = 0
    label: str | None = None

    # -- construction helpers ------------------------------------------------

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise GateError(f"gate {self.name!r} must act on at least one qubit")
        if self.name == "unitary" and self.matrix is None:
            raise GateError("unitary gate requires an explicit matrix")
        for param in self.params:
            if not isinstance(param, _REAL_ANGLE_TYPES):
                raise GateError(
                    f"gate {self.name!r} takes real angles, got {type(param).__name__}"
                )

    # -- matrices ------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Return the gate unitary as a dense ``2^k x 2^k`` array."""
        params = [float(p) for p in self.params]
        name = self.name
        if name == "unitary":
            assert self.matrix is not None
            return np.asarray(self.matrix, dtype=complex)
        if name in _SINGLE_QUBIT_CONST:
            return _SINGLE_QUBIT_CONST[name].copy()
        if name in _SINGLE_QUBIT_ROTATION:
            return _SINGLE_QUBIT_ROTATION[name](params[0])
        if name in _TWO_QUBIT_CONST:
            return _TWO_QUBIT_CONST[name].copy()
        if name in _TWO_QUBIT_ROTATION:
            return _TWO_QUBIT_ROTATION[name](params[0])
        if name == "mcx":
            return _mcx_matrix(self.num_qubits)
        if name == "mcp":
            return _mcp_matrix(self.num_qubits, params[0])
        raise GateError(f"unknown gate {name!r}")

    def inverse(self) -> "Gate":
        """Return the inverse gate (adjoint)."""
        name = self.name
        if name in ("id", "x", "y", "z", "h", "cx", "cz", "swap", "mcx"):
            return self
        if name == "s":
            return Gate("sdg", 1)
        if name == "sdg":
            return Gate("s", 1)
        if name == "t":
            return Gate("tdg", 1)
        if name == "tdg":
            return Gate("t", 1)
        if name in _SINGLE_QUBIT_ROTATION or name in _TWO_QUBIT_ROTATION or name == "mcp":
            return Gate(
                name,
                self.num_qubits,
                params=tuple(-p for p in self.params),
                num_controls=self.num_controls,
                label=self.label,
            )
        if name == "sx":
            return Gate("unitary", 1, matrix=_SX.conj().T)
        if name == "unitary":
            assert self.matrix is not None
            return Gate("unitary", self.num_qubits, matrix=np.asarray(self.matrix).conj().T)
        raise GateError(f"cannot invert gate {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.params:
            return f"Gate({self.name!r}, params={self.params})"
        return f"Gate({self.name!r})"


def _mcx_matrix(num_qubits: int) -> np.ndarray:
    """Multi-controlled X: controls are operands ``0..k-2``, target is the last.

    In the little-endian block convention the controls occupy the low bits of
    the local index and the target the high bit.
    """
    dim = 2**num_qubits
    mat = np.eye(dim, dtype=complex)
    num_controls = num_qubits - 1
    control_mask = (1 << num_controls) - 1
    target_bit = 1 << num_controls
    for idx in range(dim):
        if idx & control_mask == control_mask and not idx & target_bit:
            partner = idx | target_bit
            mat[idx, idx] = 0
            mat[partner, partner] = 0
            mat[idx, partner] = 1
            mat[partner, idx] = 1
    return mat


def _mcp_matrix(num_qubits: int, theta: float) -> np.ndarray:
    """Multi-controlled phase: adds ``exp(i theta)`` to the all-ones state."""
    dim = 2**num_qubits
    diag = np.ones(dim, dtype=complex)
    diag[dim - 1] = cmath.exp(1j * theta)
    return np.diag(diag)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def standard_gate(name: str, *params: float) -> Gate:
    """Build a standard gate by name, validating arity."""
    name = name.lower()
    if name in _SINGLE_QUBIT_CONST:
        _expect_params(name, params, 0)
        return Gate(name, 1)
    if name in _SINGLE_QUBIT_ROTATION:
        _expect_params(name, params, 1)
        return Gate(name, 1, params=tuple(params))
    if name in _TWO_QUBIT_CONST:
        _expect_params(name, params, 0)
        return Gate(name, 2)
    if name in _TWO_QUBIT_ROTATION:
        _expect_params(name, params, 1)
        return Gate(name, 2, params=tuple(params))
    raise GateError(f"unknown standard gate {name!r}")


def mcx_gate(num_controls: int) -> Gate:
    """A multi-controlled X with ``num_controls`` controls and one target."""
    if num_controls < 1:
        raise GateError("mcx requires at least one control")
    return Gate("mcx", num_controls + 1, num_controls=num_controls)


def mcp_gate(num_controls: int, theta: float) -> Gate:
    """A multi-controlled phase on ``num_controls + 1`` qubits.

    The phase ``exp(i theta)`` is applied to the all-ones computational basis
    state of the involved qubits, matching Eq. (15) of the paper.
    """
    if num_controls < 0:
        raise GateError("mcp requires a non-negative number of controls")
    return Gate("mcp", num_controls + 1, params=(theta,), num_controls=num_controls)


def unitary_gate(matrix: np.ndarray, label: str | None = None) -> Gate:
    """Wrap an arbitrary unitary matrix as a gate."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GateError("unitary gate requires a square matrix")
    dim = matrix.shape[0]
    num_qubits = int(round(math.log2(dim)))
    if 2**num_qubits != dim:
        raise GateError("unitary dimension must be a power of two")
    if not np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-8):
        raise GateError("matrix is not unitary")
    return Gate("unitary", num_qubits, matrix=matrix, label=label)


def _expect_params(name: str, params: Sequence[float], count: int) -> None:
    if len(params) != count:
        raise GateError(f"gate {name!r} expects {count} parameter(s), got {len(params)}")

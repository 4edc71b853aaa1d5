"""The per-wire Pauli basis the engine runs in.

A wire's state is the real 4-vector r_P = Tr(P rho) over P = I, X, Y, Z,
and a state on k wires is indexed wire by wire, (P_1, .., P_k).  Every map
the engine applies preserves Hermiticity, so on these vectors it is a real
4^k x 4^k matrix: its Pauli transfer matrix (Chow et al., PRL 109, 060501,
2012; Greenbaum, arXiv:1509.02921).

Outside this basis, k wires are indexed in groups (:func:`_wire_groups`),
each group's kets before its bras; for one or two wires that is the
row-major vectorization of the block, index (ket_1..ket_k, bra_1..bra_k),
where U rho U-dagger is kron(U, conj(U)).  Per wire the change of basis is
T, T[P, 2 ket + bra] = Tr(P |ket><bra|), with inverse T-dagger / 2, so a map
S becomes T S T-dagger / 2 per wire.
"""

from __future__ import annotations

import numpy as np

PAULI_T = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
# T on a group of wires, keyed by the group's ket dimension, from the
# group's (ket_1..ket_k, bra_1..bra_k) index; and back, 2^-k T-dagger.
_TO = {2: PAULI_T, 4: np.kron(PAULI_T, PAULI_T).reshape(16, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(16, 16)}
_FROM = {d: t.conj().T / d for d, t in _TO.items()}

# OpenBLAS runs a product on all its threads from a size on: a complex
# matrix product above 2**15 multiply-adds, a complex matrix-vector product
# from 2**12 entries.  One point's product just above that (a change of
# basis on six wires, a fidelity on six qubits) gains little from them on
# an idle machine, and whenever another process holds a CPU it waits for
# them to get a time slice, which makes a run several times slower.  So
# such a product goes to BLAS in up to four pieces below that size, which
# numpy's matmul runs in turn on the calling thread.  A piece is a block of
# output entries, each summing the same terms in the same order, so the
# result does not change.
_GEMM_PIECE = 2**15
_GEMV_PIECE = 2**11


def _pieces(size: int, piece: int) -> int:
    """How many pieces a product of ``size`` goes to BLAS in: ``size // piece`` up to four, else one.

    ``size`` and ``piece`` are powers of two, so the pieces are equal.
    """
    return size // piece if piece < size <= 4 * piece else 1


def _wire_groups(k: int) -> tuple[int, ...]:
    """The ket dimension of each group of wires a change of basis takes at once: pairs, then any wire left."""
    return (4,) * (k // 2) + (2,) * (k % 2)


def _per_wire(c: np.ndarray, k: int, mats: dict, spare: np.ndarray) -> np.ndarray:
    """Map each group of wires of ``c``, shape (B, 4**k), by its matrix in ``mats``.

    Each step maps the leading group and moves it to the back, so the
    wires end in their order.  Steps alternate between ``c`` and the
    equal-sized ``spare``; the one holding the result is returned.  Going
    back from the Pauli basis, a Hermitian operator's mirrored entries come
    out as exact conjugates: every product with an entry of ``mats`` is
    exact, and mirrored entries sum mirrored terms.  Each step is one
    product per point, in :func:`_pieces` by its rows.
    """
    for d in _wire_groups(k):
        p = _pieces(c.shape[1] * d * d, _GEMM_PIECE)
        rows = c.reshape(len(c), d * d, p, -1).transpose(0, 2, 3, 1)
        np.matmul(rows, mats[d].T, out=spare.reshape(len(c), p, -1, d * d))
        c, spare = spare, c
    return c


def to_pauli_complex(x: np.ndarray) -> np.ndarray:
    """``x`` in the Pauli basis before its imaginary part is dropped: T x for a state, T x T-dagger / 2 for a map.

    ``x`` is a state on k wires (a 4^k vector) or a map on them (a
    4^k x 4^k matrix); T acts on every wire.  The imaginary part is zero
    for a Hermitian state and for a map that preserves Hermiticity.
    """
    k = (x.shape[-1].bit_length() - 1) // 2
    c = np.array(x, dtype=complex).reshape(-1, 4**k)
    if x.ndim == 2:  # first x T-dagger / 2^k, transposed
        c = np.ascontiguousarray(_per_wire(c.conj(), k, _TO, np.empty_like(c)).conj().T * 0.5**k)
    return _per_wire(c, k, _TO, np.empty_like(c)).T.reshape(x.shape)


def to_pauli(x: np.ndarray) -> np.ndarray:
    """The real Pauli-basis form of ``x`` (see :func:`to_pauli_complex`)."""
    return np.ascontiguousarray(to_pauli_complex(x).real)


def pure_to_pauli(amplitudes: np.ndarray, work) -> np.ndarray:
    """The Pauli vector of the pure state ``amplitudes`` on k wires: the real part of ``work[1]``.

    ``work`` holds two complex arrays of 4**k entries, both overwritten.
    The outer product starts in whichever of them makes the last step
    write ``work[1]``.
    """
    k = amplitudes.shape[0].bit_length() - 1
    groups = _wire_groups(k)
    c, spare = work if len(groups) % 2 else work[::-1]
    ket = [e for d in groups for e in (d, 1)]
    bra = [e for d in groups for e in (1, d)]
    both = [e for d in groups for e in (d, d)]
    np.multiply(amplitudes.reshape(ket), amplitudes.conj().reshape(bra), out=c.reshape(both))
    return _per_wire(c.reshape(1, -1), k, _TO, spare.reshape(1, -1)).real[0]


def from_pauli(c: np.ndarray, k: int) -> np.ndarray:
    """The density matrices whose Pauli vectors are the rows of ``c``, (B, 4**k) complex, as a (B, d, d) array.

    ``c`` is overwritten.  Besides it the change holds one more array of
    its size, which the result takes over, and the result is exactly
    Hermitian.
    """
    spare = np.empty_like(c)
    done = _per_wire(c, k, _FROM, spare)
    out, groups = (spare if done is c else c), _wire_groups(k)
    ket_bra = (0, *range(1, 2 * len(groups), 2), *range(2, 2 * len(groups) + 1, 2))
    grouped = done.reshape((len(c),) + tuple(e for d in groups for e in (d, d))).transpose(ket_bra)
    np.copyto(out.reshape(grouped.shape), grouped)
    return out.reshape(len(c), 1 << k, 1 << k)

"""Viterbi decoder for the 802.11 rate-1/2 convolutional code.

The decoder is fully vectorised over a *batch* of equal-length codewords so
that packet-error-rate experiments can decode dozens of packets per numpy
trellis sweep.  Both hard decisions (with optional erasure masks produced by
depuncturing) and soft decisions (log-likelihood ratios) are supported.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.phy.convolutional import CONSTRAINT_LENGTH, GENERATORS_OCTAL, generator_taps

__all__ = ["ViterbiDecoder", "viterbi_decode", "viterbi_decode_batch"]

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)


def _build_trellis() -> dict[str, np.ndarray]:
    """Precompute trellis transition tables.

    State encoding: the most recent input bit occupies the most significant
    bit of the 6-bit state, i.e. ``state = (b_{t-1} << 5) | ... | b_{t-6}``.
    """
    taps_a = generator_taps(GENERATORS_OCTAL[0])
    taps_b = generator_taps(GENERATORS_OCTAL[1])

    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    out_a = np.empty((_N_STATES, 2), dtype=np.uint8)
    out_b = np.empty((_N_STATES, 2), dtype=np.uint8)
    for state in range(_N_STATES):
        history = [(state >> (CONSTRAINT_LENGTH - 2 - k)) & 1 for k in range(CONSTRAINT_LENGTH - 1)]
        for bit in (0, 1):
            register = np.array([bit] + history, dtype=np.uint8)
            out_a[state, bit] = int(register @ taps_a) % 2
            out_b[state, bit] = int(register @ taps_b) % 2
            next_state[state, bit] = (bit << (CONSTRAINT_LENGTH - 2)) | (state >> 1)

    # Predecessor view: for each new state, the two (previous state, input)
    # pairs that reach it.  The input bit is determined by the new state's MSB.
    prev_state = np.empty((_N_STATES, 2), dtype=np.int64)
    input_bit = np.empty(_N_STATES, dtype=np.uint8)
    counters = np.zeros(_N_STATES, dtype=np.int64)
    for state in range(_N_STATES):
        for bit in (0, 1):
            ns = next_state[state, bit]
            prev_state[ns, counters[ns]] = state
            input_bit[ns] = bit
            counters[ns] += 1
    assert np.all(counters == 2)
    # Butterfly structure the fast sweep relies on: new states j and
    # j + half share the predecessors 2j (slot 0) and 2j + 1 (slot 1).
    half = _N_STATES // 2
    butterfly = 2 * (np.arange(_N_STATES) % half)
    assert np.array_equal(prev_state, np.stack([butterfly, butterfly + 1], axis=1))

    # Expected coded bits along each predecessor transition.
    exp_a = out_a[prev_state, input_bit[:, None]]
    exp_b = out_b[prev_state, input_bit[:, None]]

    # Fast-sweep branch layout (pred, half, j) of new state half * 32 + j:
    # the index 2 * a + b of the coded-bit pair each transition expects, and
    # the int8 branch costs of all 16 patterns of 0/1 Hamming costs
    # (a=0, a=1, b=0, b=1 as bits 0-3 of the pattern).
    hypotheses = 2 * exp_a.T.reshape(2, 2, half) + exp_b.T.reshape(2, 2, half)
    patterns = (np.arange(16)[:, None] >> np.arange(4)) & 1
    pair_costs = patterns[:, :2, None] + patterns[:, None, 2:]
    hamming_branches = pair_costs.reshape(16, 4)[:, hypotheses].astype(np.int8)
    return {
        "next_state": next_state,
        "out_a": out_a,
        "out_b": out_b,
        "prev_state": prev_state,
        "input_bit": input_bit,
        "exp_a": exp_a,
        "exp_b": exp_b,
        "hypotheses": hypotheses,
        "hamming_branches": hamming_branches,
    }


_TRELLIS = _build_trellis()


class ViterbiDecoder:
    """Maximum-likelihood decoder for the (133, 171) rate-1/2 code.

    Parameters
    ----------
    terminated:
        When ``True`` (the 802.11 case, where six tail bits flush the
        encoder) the traceback starts from the all-zero state; otherwise it
        starts from the best surviving state.
    reference:
        Run the original generic trellis sweep instead of the optimised one.
        Both produce bit-identical decisions; the reference sweep is kept so
        that the link engine's ``"reference"`` mode preserves the seed
        implementation end to end for verification and benchmarking.
    """

    #: Memory bound, in elements, for the step-major branch table of the
    #: optimised sweep (``n_steps * 2 * states`` elements per frame: int8 on
    #: the hard-decision path, 16 MiB at the bound; float64 on the soft path,
    #: 128 MiB).  Larger batches are decoded in independent, bit-identical
    #: slices.
    MAX_BRANCH_ELEMENTS = 2**24

    def __init__(self, terminated: bool = True, reference: bool = False):
        self.terminated = terminated
        self.reference = reference

    # ------------------------------------------------------------------ #
    def decode(
        self,
        coded_bits: np.ndarray,
        known_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode one hard-decision codeword (possibly with erasures)."""
        decoded = self.decode_batch(
            np.asarray(coded_bits, dtype=np.uint8)[None, :],
            known_mask=None if known_mask is None else np.asarray(known_mask, dtype=bool)[None, :],
        )
        return decoded[0]

    def decode_batch(
        self,
        coded_bits: np.ndarray,
        known_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode a batch of hard-decision codewords.

        Parameters
        ----------
        coded_bits:
            Array of shape ``(batch, 2 * n_info_bits)`` containing 0/1 values.
        known_mask:
            Optional boolean array of the same shape; ``False`` marks erased
            (punctured) positions whose branch metric is ignored.
        """
        coded = np.asarray(coded_bits, dtype=np.uint8)
        if coded.ndim != 2 or coded.shape[1] % 2 != 0:
            raise ValueError("coded_bits must have shape (batch, 2*n) with even columns")
        if known_mask is None:
            known = np.ones(coded.shape, dtype=bool)
        else:
            known = np.asarray(known_mask, dtype=bool)
            if known.shape != coded.shape:
                raise ValueError("known_mask must match coded_bits shape")
        # Branch costs per position: 0 when erased, 0/1 Hamming otherwise.
        # The fast sweep takes them as exact booleans, the reference as float64.
        costs = _bit_costs(coded.astype(bool), known)
        if self.reference:
            costs = costs.astype(np.float64)
        with obs.span("engine.viterbi", batch=int(coded.shape[0]), soft=False):
            return self._run(costs[:, 0::2], costs[:, 1::2])

    def decode_soft_batch(self, llrs: np.ndarray) -> np.ndarray:
        """Decode a batch of soft codewords given per-bit LLRs.

        LLRs follow the convention ``log P(bit=0) - log P(bit=1)``; erased
        (punctured) positions must carry an LLR of exactly 0.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] % 2 != 0:
            raise ValueError("llrs must have shape (batch, 2*n) with even columns")
        # Hypothesising bit=1 costs +llr relative to bit=0 (can be negative).
        cost_a = _soft_costs(llrs[:, 0::2])
        cost_b = _soft_costs(llrs[:, 1::2])
        with obs.span("engine.viterbi", batch=int(llrs.shape[0]), soft=True):
            return self._run(cost_a, cost_b)

    # ------------------------------------------------------------------ #
    def _run(self, cost_a: np.ndarray, cost_b: np.ndarray) -> np.ndarray:
        """Shared trellis sweep.

        ``cost_a``/``cost_b`` have shape ``(batch, n_steps, 2)`` where the last
        axis indexes the hypothesised coded bit value (0 or 1).  Boolean costs
        are the exact 0/1 Hamming costs of hard decisions: the fast sweep runs
        them through an int8 branch table and int32 path metrics.  Float costs
        (soft decisions) run through the same loop in float64.  Both start the
        unreachable states at the reference's 10**9, so the integer sweep
        computes exactly what the float one would.

        The add-compare-select recursion is inherently sequential in the step
        index, so the inner loop stays a Python loop.  Everything that does
        not depend on the running metrics, the branch cost of every transition
        of every step, is built once up front as a step-major table of shape
        ``(n_steps, batch, pred, half, j)``.  For the K=7 code the new states
        ``j`` and ``j + 32`` (``half`` 0 and 1) share the predecessors ``2j``
        and ``2j + 1`` (``pred`` 0 and 1), so a reshape view of the metrics
        replaces a per-step gather: one add, one compare and one minimum per
        step.  Predecessor ``2j + 1`` survives only when strictly better
        (``c1 < c0``), the tie rule of the reference's ``argmin``, so the
        decisions are bit-identical to :meth:`_run_reference`.
        """
        if self.reference:
            return self._run_reference(cost_a, cost_b)
        batch, n_steps = cost_a.shape[0], cost_a.shape[1]
        # The branch table below costs n_steps * 2 * states elements per
        # frame; bound it by sweeping large batches in independent slices
        # (frames never interact, so the split is exact).
        max_frames = max(1, self.MAX_BRANCH_ELEMENTS // max(n_steps * 2 * _N_STATES, 1))
        if batch > max_frames:
            return np.concatenate(
                [
                    self._run(cost_a[start : start + max_frames], cost_b[start : start + max_frames])
                    for start in range(0, batch, max_frames)
                ]
            )
        half = _N_STATES // 2
        steps_a = np.moveaxis(cost_a, 1, 0)
        steps_b = np.moveaxis(cost_b, 1, 0)
        if cost_a.dtype == bool:
            # Look each step's branch row up by its pattern of four 0/1 costs.
            pattern = steps_a[..., 0] + 2 * steps_a[..., 1]
            pattern += 4 * steps_b[..., 0] + 8 * steps_b[..., 1]
            branches = np.take(_TRELLIS["hamming_branches"], pattern, axis=0)
        else:
            pair_costs = (steps_a[..., :, None] + steps_b[..., None, :]).reshape(n_steps, batch, 4)
            branches = np.take(pair_costs, _TRELLIS["hypotheses"], axis=2)

        dtype = np.int32 if branches.dtype == np.int8 else np.float64
        metrics = np.full((batch, _N_STATES), 10**9, dtype=dtype)
        metrics[:, 0] = 0
        # Views of the one metric buffer: predecessors as (batch, pred, 1, j)
        # and new states as (batch, half, j).  The candidates are stored
        # predecessor-major so that both halves of the select are contiguous.
        predecessors = metrics.reshape(batch, half, 2).transpose(0, 2, 1)[:, :, None, :]
        new_states = metrics.reshape(batch, 2, half)
        by_predecessor = np.empty((2, batch, 2, half), dtype=dtype)
        candidates = by_predecessor.transpose(1, 0, 2, 3)
        candidate0, candidate1 = by_predecessor
        survivors = np.empty((n_steps, batch, 2, half), dtype=bool)
        for step in range(n_steps):
            np.add(predecessors, branches[step], out=candidates)
            np.less(candidate1, candidate0, out=survivors[step])
            np.minimum(candidate0, candidate1, out=new_states)

        if self.terminated:
            states = np.zeros(batch, dtype=np.int64)
        else:
            states = np.argmin(metrics, axis=1)

        # Traceback on flat indices ``frame * states + state`` into each
        # step's survivors; the predecessor of state s is 2 * (s % half) plus
        # its survivor bit.
        flat = survivors.reshape(n_steps, batch * _N_STATES)
        offsets = np.arange(batch) * _N_STATES
        first_predecessor = (offsets[:, None] + _TRELLIS["prev_state"][:, 0]).reshape(-1)
        index = offsets + states
        path = np.empty((n_steps, batch), dtype=np.int64)
        for step in range(n_steps - 1, -1, -1):
            path[step] = index
            index = first_predecessor.take(index) + flat[step].take(index)
        return np.ascontiguousarray(_TRELLIS["input_bit"][(path - offsets).T])

    def _run_reference(self, cost_a: np.ndarray, cost_b: np.ndarray) -> np.ndarray:
        """Original (seed) trellis sweep, kept verbatim for verification."""
        batch, n_steps = cost_a.shape[0], cost_a.shape[1]
        exp_a = _TRELLIS["exp_a"]  # (states, 2 predecessors)
        exp_b = _TRELLIS["exp_b"]
        prev_state = _TRELLIS["prev_state"]
        input_bit = _TRELLIS["input_bit"]

        metrics = np.full((batch, _N_STATES), 1e9)
        metrics[:, 0] = 0.0
        survivors = np.empty((n_steps, batch, _N_STATES), dtype=np.uint8)

        for step in range(n_steps):
            # Branch cost of every (new state, predecessor) transition.
            branch = (
                cost_a[:, step, :][:, exp_a]  # (batch, states, 2)
                + cost_b[:, step, :][:, exp_b]
            )
            candidate = metrics[:, prev_state] + branch  # (batch, states, 2)
            choice = np.argmin(candidate, axis=2).astype(np.uint8)
            metrics = np.take_along_axis(candidate, choice[..., None], axis=2)[..., 0]
            survivors[step] = choice

        if self.terminated:
            states = np.zeros(batch, dtype=np.int64)
        else:
            states = np.argmin(metrics, axis=1)

        decoded = np.empty((batch, n_steps), dtype=np.uint8)
        rows = np.arange(batch)
        for step in range(n_steps - 1, -1, -1):
            decoded[:, step] = input_bit[states]
            choice = survivors[step][rows, states]
            states = prev_state[states, choice]
        return decoded


def _bit_costs(received: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Hamming cost of hypothesising coded bit 0 or 1 at each position."""
    cost0 = known & received     # received 1 while hypothesising 0
    cost1 = known & ~received    # received 0 while hypothesising 1
    return np.stack([cost0, cost1], axis=-1)


def _soft_costs(llrs: np.ndarray) -> np.ndarray:
    """Soft cost of hypothesising coded bit 0 or 1 given LLRs."""
    zeros = np.zeros_like(llrs)
    return np.stack([zeros, llrs], axis=-1)


def viterbi_decode(
    coded_bits: np.ndarray,
    known_mask: np.ndarray | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Convenience wrapper decoding a single codeword."""
    return ViterbiDecoder(terminated=terminated).decode(coded_bits, known_mask)


def viterbi_decode_batch(
    coded_bits: np.ndarray,
    known_mask: np.ndarray | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Convenience wrapper decoding a batch of equal-length codewords."""
    return ViterbiDecoder(terminated=terminated).decode_batch(coded_bits, known_mask)

"""One record per protocol: a CHSH or GHZ round as a single projective measurement.

A round of either protocol has ``n`` parties.  Each tosses a fair coin and
measures one of two single-qubit observables, chosen by the coin, on its
qubit of a shared ``n``-qubit state.  The whole round is one projective
measurement on coin_1 (x) ... (x) coin_n (x) qubit_1 (x) ... (x) qubit_n,
prepared in ``|+>^n (x) shared state``, with one projector per outcome:

    E_{c_1} (x) ... (x) E_{c_n} (x) E^1_{c_1,m_1} (x) ... (x) E^n_{c_n,m_n},

where ``E_c = |c><c|`` and ``E^k_{c,m} = (I + m A^k_c) / 2`` projects onto
result ``m`` of party ``k``'s observable ``A^k_c``.  :class:`Protocol`
holds what differs between protocols -- the outcome record, the
observables and the shared state, the closed form and the shortest run --
and derives the rest: the outcome alphabet, the distribution both ways,
the coin events and a sampled run's per-coin cells and tests.  A record
is plain data, declared when its protocol module is imported; its arrays
are built by the first call that needs them, so a run that only reads the
closed form, such as a dump of the distribution, loads no numpy.  The coins
are outermost in the alphabet, so a run's symbol counts, reshaped to
``(2**n, 2**n)``, hold one row per coin tuple, and every row lists the
same result tuples.

The Born weights come from the 2x2 factors: each outcome's factors are
applied to its copy of the initial state, one qubit axis at a time and
every outcome's copy at once, so no ``4**n``-dimensional projector is
built.  On that path completeness is checked on each factor measurement,
the coin projectors and the PVM of every observable.  The dense operator
set, checked as a whole, is built only by :meth:`Protocol.operators`.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .checks import FALSE_ALARM_RATE
from .spaces import FiniteProbabilitySpace

if TYPE_CHECKING:  # numpy and linalg are imported by the methods that build arrays
    import numpy as np

    from .linalg import MeasurementOperatorSet

__all__ = ["CELL_FAMILY_RATE", "Protocol"]

#: The family-wise rate of a run's coin-tuple tests: the s-value gate's own.  It is stated,
#: not exact, since chi-square p-values are asymptotic: a ``chsh`` family rejects a true law
#: at 1.31x it at 1000 rounds per pair (about 8.3e-5 at ``chsh --trials 4000``) and at 1.03x
#: at 10000, and a ``ghz`` family at 0.96-0.99x.
CELL_FAMILY_RATE = FALSE_ALARM_RATE


@functools.cache
def _coin_projectors() -> tuple:
    """Each party's coin measurement, ``E_c = |c><c|``."""
    from .linalg import basis, projector

    return (0, projector(basis(2, 0))), (1, projector(basis(2, 1)))


@functools.cache
def _alphabet(outcome: type, parties: int) -> tuple:
    return tuple(
        outcome(*coins, *results)
        for coins in itertools.product((0, 1), repeat=parties)
        for results in itertools.product((1, -1), repeat=parties)
    )


class Protocol(NamedTuple):
    """The data of one protocol, and everything derived from it.

    ``outcome`` is the record type of a round: the ``n`` coins (0 or 1),
    then the ``n`` results (+1 or -1).  ``arrays()``, cached where it is
    defined, builds :attr:`observables` and :attr:`shared_state` once:
    ``observables[k][c]`` is party ``k``'s observable on coin ``c``, a 2x2
    Hermitian involution, and the shared state has party 0 outermost.
    ``closed_form`` maps an outcome to its weight, in integer arithmetic up
    to one final floating-point step, so that exact zeros stay exact.
    ``min_trials`` is the shortest run drawn, 1000 rounds per coin tuple.
    A record is plain data: it compares and hashes field by field.
    """

    outcome: type
    arrays: Callable
    closed_form: Callable
    min_trials: int

    @property
    def parties(self) -> int:
        return len(self.outcome._fields) // 2

    @property
    def observables(self) -> tuple:
        return self.arrays()[0]

    @property
    def shared_state(self) -> np.ndarray:
        return self.arrays()[1]

    @property
    def alphabet(self) -> tuple:
        """All outcomes in the canonical sampling order: coins outermost, 0 before 1, +1 before -1."""
        return _alphabet(self.outcome, self.parties)

    def initial_state(self) -> np.ndarray:
        """``|+>^n (x) shared_state``: the coin qubits, then the shared qubits."""
        from .linalg import ket_plus, tensor

        return tensor(*[ket_plus()] * self.parties, self.shared_state)

    def _factors(self):
        """Each outcome with its 2x2 factors, taken from checked factor measurements."""
        from .linalg import MeasurementOperatorSet, involutory_pvm

        coin = MeasurementOperatorSet(_coin_projectors())
        pvms = [[involutory_pvm(a) for a in party] for party in self.observables]
        n = self.parties
        for o in self.alphabet:
            coins, results = o[:n], o[n:]
            measured = [pvms[k][c].operator_for(m) for k, (c, m) in enumerate(zip(coins, results))]
            yield o, [coin.operator_for(c) for c in coins] + measured

    def operators(self) -> MeasurementOperatorSet:
        """The dense projector of every outcome, on dimension ``4**n``, checked as one set."""
        from .linalg import MeasurementOperatorSet, tensor

        return MeasurementOperatorSet((o, tensor(*factors)) for o, factors in self._factors())

    def distribution(self, method: str = "analytic") -> FiniteProbabilitySpace:
        """The round distribution over :attr:`alphabet`.

        ``"analytic"`` evaluates the closed form.  ``"linear_algebra"``
        computes each Born weight ``<psi|E|psi>`` in full complex arithmetic
        by applying the outcome's 2x2 factors to ``psi``.  The two agree
        entrywise to within 1e-12 (cross-checked in tests and in every run).
        """
        if method == "analytic":
            weights = [self.closed_form(o) for o in self.alphabet]
        elif method == "linear_algebra":
            weights = self._born_weights()
        else:
            raise ValueError(f"unknown method {method!r}")
        return FiniteProbabilitySpace(self.alphabet, weights)

    def _born_weights(self) -> list[float]:
        """Each outcome's Born weight ``|E psi|^2``, its factor ``k`` applied to axis ``k`` in turn.

        The outcomes' states are stacked, so each axis takes one batched
        product: every outcome's factor on that axis, applied at once.
        """
        import numpy as np

        factors = np.array([f for _, f in self._factors()])
        count, axes = factors.shape[:2]
        psi = self.initial_state()
        states = np.broadcast_to(psi, (count, psi.size))
        for axis in range(axes):
            # Axis k < n holds coin k's factor, axis n + k party k's result on that coin.
            blocks = states.reshape(count, 2**axis, 2, -1)
            states = np.einsum("oab,oxby->oxay", factors[:, axis], blocks)
        states = states.reshape(count, -1)
        return np.einsum("oi,oi->o", states.conj(), states).real.tolist()

    def coin_event(self, *coins: int) -> tuple:
        """All outcomes with the given coins, one per party."""
        return tuple(o for o in self.alphabet if o[: self.parties] == coins)

    def tally_cells(
        self,
        fps: FiniteProbabilitySpace,
        trials: int,
        seed: int,
        threads: int = 1,
        on_world: Callable | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Draw a run of ``fps``, a law over :attr:`alphabet`: its counts and per-coin cells.

        The counts are :func:`~typicality_lab.worlds.tally`'s over
        :attr:`alphabet`, and ``on_world`` is passed to it.  Each coin tuple,
        in alphabet order, maps to the :class:`~typicality_lab.worlds.SignCell`
        of the results' product on its rounds.  Raises below :attr:`min_trials`, and
        for a law not over :attr:`alphabet` in its order.
        """
        from .worlds import SignCell, tally

        if fps.alphabet != self.alphabet:
            raise ValueError("the law must be over the protocol's alphabet, in its order")
        if trials < self.min_trials:
            raise ValueError(f"trials must be at least {self.min_trials}, got {trials}")
        counts = tally(fps, trials, seed, threads, on_world)
        n = self.parties
        plus = [math.prod(o[n:]) > 0 for o in self.alphabet[: 2**n]]
        return counts, {
            o[:n]: SignCell(int(row.sum()), int(row[plus].sum()))
            for o, row in zip(self.alphabet[:: 2**n], counts.reshape(2**n, 2**n))
        }

    def cell_tests(self, fps: FiniteProbabilitySpace, counts: np.ndarray) -> dict:
        """Each coin tuple's block-1 test against its law under ``fps``, as one Holm family.

        A coin tuple's row of ``counts``, a run's symbol counts over the
        alphabet of ``fps``, is its block-1 histogram, and its law is the same
        row of the weights of ``fps``, normalized.  The family's rate is
        ``CELL_FAMILY_RATE``, and its keys are the coin digits in alphabet order.
        Raises for a law not over :attr:`alphabet` in its order.
        """
        from .battery import frequency_test, holm_family

        if fps.alphabet != self.alphabet:
            raise ValueError("the law must be over the protocol's alphabet, in its order")
        n = self.parties
        coins = [o[:n] for o in self.alphabet[:: 2**n]]
        rows = zip(counts.reshape(2**n, 2**n), fps.weights.reshape(2**n, 2**n))
        tests = [frequency_test(row, law / law.sum()) for row, law in rows]
        family = holm_family(tests, CELL_FAMILY_RATE)
        return {"".join(map(str, c)): test for c, test in zip(coins, family)}

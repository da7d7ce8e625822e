"""A small DPLL SAT solver.

The paper's baseline (Minesweeper) hands the whole verification problem to a
general-purpose SMT solver.  Offline reproduction cannot ship Z3, so the
constraint-search baseline is built on this from-scratch CNF SAT solver:
DPLL with unit propagation, pure-literal elimination and a simple
most-occurrences branching heuristic.  Its purpose is to be a *generic
search* procedure — precisely the thing the paper argues is the wrong tool —
so no effort is spent on CDCL-level performance.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError


class SolverError(ReproError):
    """The SAT solver or an encoding built on it was used incorrectly."""


class SatResult(enum.Enum):
    """Outcome of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class CnfFormula:
    """A CNF formula over integer variables (DIMACS-style literals).

    Variables are positive integers; a literal is ``+v`` or ``-v``.  The
    class also provides small helper encodings (at-most-one, exactly-one,
    implications) used by the Minesweeper-style network encodings.
    """

    def __init__(self) -> None:
        self.clauses: List[Tuple[int, ...]] = []
        self._variable_count = 0
        self._names: Dict[str, int] = {}

    # ------------------------------------------------------------------ variables
    def new_variable(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable, optionally registering a name for it."""
        self._variable_count += 1
        variable = self._variable_count
        if name is not None:
            if name in self._names:
                raise SolverError(f"duplicate variable name {name!r}")
            self._names[name] = variable
        return variable

    def variable(self, name: str) -> int:
        """The variable registered under ``name`` (creating it if needed)."""
        if name not in self._names:
            return self.new_variable(name)
        return self._names[name]

    @property
    def variable_count(self) -> int:
        return self._variable_count

    # ------------------------------------------------------------------ clauses
    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause (a disjunction of literals)."""
        clause = tuple(literals)
        if not clause:
            # An empty clause makes the formula trivially unsatisfiable; keep
            # it so the solver reports UNSAT.
            self.clauses.append(clause)
            return
        for literal in clause:
            if literal == 0 or abs(literal) > self._variable_count:
                raise SolverError(f"literal {literal} references an unknown variable")
        self.clauses.append(clause)

    def add_implication(self, antecedent: int, consequent: int) -> None:
        """antecedent -> consequent."""
        self.add_clause((-antecedent, consequent))

    def add_at_most_one(self, variables: Sequence[int]) -> None:
        """Pairwise at-most-one constraint."""
        for a, b in itertools.combinations(variables, 2):
            self.add_clause((-a, -b))

    def add_exactly_one(self, variables: Sequence[int]) -> None:
        """Exactly one of ``variables`` is true."""
        if not variables:
            self.add_clause(())
            return
        self.add_clause(tuple(variables))
        self.add_at_most_one(variables)

    def add_at_most_k(self, variables: Sequence[int], k: int) -> None:
        """Naive binomial at-most-k encoding (fine for the small k used here)."""
        if k < 0:
            self.add_clause(())
            return
        for subset in itertools.combinations(variables, k + 1):
            self.add_clause(tuple(-v for v in subset))

    def clause_count(self) -> int:
        return len(self.clauses)


@dataclass
class SatStatistics:
    """Search effort counters for one solver run."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    elapsed_seconds: float = 0.0


class SatSolver:
    """DPLL with unit propagation and pure-literal elimination."""

    def __init__(self, formula: CnfFormula, max_decisions: int = 50_000_000) -> None:
        self.formula = formula
        self.max_decisions = max_decisions
        self.statistics = SatStatistics()

    # ------------------------------------------------------------------ solving
    def solve(
        self, assumptions: Optional[Dict[int, bool]] = None
    ) -> Tuple[SatResult, Optional[Dict[int, bool]]]:
        """Solve the formula; returns (result, model) where the model maps
        variables to booleans for SAT results."""
        started = time.perf_counter()
        assignment: Dict[int, bool] = dict(assumptions or {})
        clauses = [list(clause) for clause in self.formula.clauses]
        if any(len(clause) == 0 for clause in clauses):
            self.statistics.elapsed_seconds = time.perf_counter() - started
            return SatResult.UNSAT, None
        # DPLL recursion depth is bounded by the number of decision variables;
        # raise the interpreter limit accordingly for large encodings.
        import sys

        previous_limit = sys.getrecursionlimit()
        needed = 4 * self.formula.variable_count + 1000
        if needed > previous_limit:
            sys.setrecursionlimit(needed)
        try:
            result = self._dpll(clauses, assignment)
        finally:
            sys.setrecursionlimit(previous_limit)
        self.statistics.elapsed_seconds = time.perf_counter() - started
        if result is None:
            return SatResult.UNKNOWN, None
        satisfied, model = result
        if not satisfied:
            return SatResult.UNSAT, None
        # Complete the model: unconstrained variables default to False.
        for variable in range(1, self.formula.variable_count + 1):
            model.setdefault(variable, False)
        return SatResult.SAT, model

    # ------------------------------------------------------------------ internals
    def _dpll(
        self, clauses: List[List[int]], assignment: Dict[int, bool]
    ) -> Optional[Tuple[bool, Dict[int, bool]]]:
        if self.statistics.decisions > self.max_decisions:
            return None
        clauses, assignment, conflict = self._propagate(clauses, dict(assignment))
        if conflict:
            self.statistics.conflicts += 1
            return False, {}
        if not clauses:
            return True, assignment
        variable = self._pick_branch_variable(clauses)
        for value in (True, False):
            self.statistics.decisions += 1
            trial = dict(assignment)
            trial[variable] = value
            result = self._dpll(clauses, trial)
            if result is None:
                return None
            satisfied, model = result
            if satisfied:
                return True, model
        return False, {}

    def _propagate(
        self, clauses: List[List[int]], assignment: Dict[int, bool]
    ) -> Tuple[List[List[int]], Dict[int, bool], bool]:
        """Apply the current assignment, then unit-propagate to a fixed point."""
        while True:
            simplified: List[List[int]] = []
            unit_literal: Optional[int] = None
            for clause in clauses:
                new_clause: List[int] = []
                satisfied = False
                for literal in clause:
                    variable = abs(literal)
                    if variable in assignment:
                        if (literal > 0) == assignment[variable]:
                            satisfied = True
                            break
                    else:
                        new_clause.append(literal)
                if satisfied:
                    continue
                if not new_clause:
                    return clauses, assignment, True
                if len(new_clause) == 1 and unit_literal is None:
                    unit_literal = new_clause[0]
                simplified.append(new_clause)
            if unit_literal is None:
                return simplified, assignment, False
            self.statistics.propagations += 1
            assignment[abs(unit_literal)] = unit_literal > 0
            clauses = simplified

    @staticmethod
    def _pick_branch_variable(clauses: List[List[int]]) -> int:
        counts: Dict[int, int] = {}
        for clause in clauses:
            for literal in clause:
                counts[abs(literal)] = counts.get(abs(literal), 0) + 1
        return max(counts, key=lambda v: counts[v])

"""Schedule contracts: declarations the static verifier holds us to."""

import pytest

from repro.analysis.contract import ContractOp, ScheduleContract
from repro.parallel.decomposition import AtomDecomposition, Decomposition
from repro.parallel.pclassic import SCHEDULE_CONTRACT as CLASSIC_CONTRACT
from repro.parallel.pmd import STEP_SCHEDULE_CONTRACT
from repro.parallel.ppme import SCHEDULE_CONTRACT as PME_CONTRACT


class TestScheduleContract:
    def test_flags_gate_ops(self):
        c = ScheduleContract(
            name="t",
            per_step=(
                ContractOp("barrier", when="barrier"),
                ContractOp("allreduce"),
            ),
            flags=("barrier",),
        )
        assert c.expected_ops(set()) == ["allreduce"]
        assert c.expected_ops({"barrier"}) == ["barrier", "allreduce"]

    def test_unknown_flag_rejected(self):
        c = ScheduleContract(name="t", per_step=())
        with pytest.raises(ValueError, match="knows flags"):
            c.expected_ops({"pme"})


class TestStepContract:
    """The rank program's declared Figure-2 schedule."""

    def test_full_pme_step(self):
        ops = STEP_SCHEDULE_CONTRACT.expected_ops({"barrier", "pme"})
        assert ops == ["barrier", "alltoallv", "alltoallv", "allreduce", "allgatherv"]

    def test_classic_only_step(self):
        ops = STEP_SCHEDULE_CONTRACT.expected_ops({"barrier"})
        assert ops == ["barrier", "allreduce", "allgatherv"]

    def test_composes_from_the_phase_contracts(self):
        """The step's PME ops are exactly the PME phase's declaration."""
        pme_ops = [op.op for op in PME_CONTRACT.per_step]
        step_pme_ops = [
            op.op for op in STEP_SCHEDULE_CONTRACT.per_step if op.when == "pme"
        ]
        assert step_pme_ops == pme_ops
        assert [op.op for op in CLASSIC_CONTRACT.per_step] == []


class TestDecompositionContract:
    def test_decomposition_is_abstract(self):
        with pytest.raises(TypeError):
            Decomposition()  # type: ignore[abstract]

    def test_atom_decomposition_declares_the_step_schedule(self):
        decomp = AtomDecomposition(n_atoms=100, n_ranks=4)
        assert decomp.schedule_contract() is STEP_SCHEDULE_CONTRACT

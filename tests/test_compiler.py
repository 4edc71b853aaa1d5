"""Partitioning, remote-gate detection, protocol lowering, resource counts."""

import pytest

from qdcsim.compiler import (
    ClassicalMessage,
    ConditionalCorrection,
    DistributedCircuit,
    EbitRequest,
    LocalGate,
    Measure,
    Partition,
    Reinit,
    ResourceCount,
    Scheme,
    SchemeInapplicableError,
    compile_circuit,
    compile_report,
    count_resources,
    detect_remote,
    partition_qubits,
    report_to_text,
)
from qdcsim.qasm import lower_to_basis, parse_qasm
from qdcsim.states import Role, Site


def remote_cnot_circuit():
    return parse_qasm("qreg q[2]; cx q[0],q[1];", name="remote-cnot")


def counts(dc):
    r = count_resources(dc)
    return (r.n_cnot, r.n_ebit, r.n_meas, r.n_classical_msgs)


class TestPartition:
    def test_odd_extra_goes_to_low_indices(self):
        p = partition_qubits(5)
        assert sorted(p.qpu_a) == [0, 1, 2]
        assert sorted(p.qpu_b) == [3, 4]

    def test_even_split(self):
        p = partition_qubits(4)
        assert sorted(p.qpu_a) == [0, 1]
        assert sorted(p.qpu_b) == [2, 3]

    def test_smallest(self):
        p = partition_qubits(2)
        assert sorted(p.qpu_a) == [0]
        assert sorted(p.qpu_b) == [1]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            partition_qubits(0)

    def test_balance_invariant(self):
        with pytest.raises(ValueError, match="balanced"):
            Partition(frozenset({0, 1, 2}), frozenset({3}))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            Partition(frozenset({0}), frozenset({0, 1}))


class TestDetectRemote:
    def test_crossing_cnot_found(self):
        c = lower_to_basis(remote_cnot_circuit())
        assert detect_remote(c, partition_qubits(2)) == [0]

    def test_local_cnot_ignored(self):
        c = lower_to_basis(parse_qasm("qreg q[4]; cx q[0],q[1];"))
        assert detect_remote(c, partition_qubits(4)) == []

    def test_mixed_circuit_brute_force(self):
        src = """
        qreg q[4];
        cx q[0],q[2];
        cx q[0],q[1];
        cx q[3],q[1];
        cx q[2],q[3];
        cx q[1],q[3];
        h q[0];
        """
        c = lower_to_basis(parse_qasm(src))
        p = partition_qubits(4)
        want = []
        for i, g in enumerate(c.ops):
            if g.kind == "cx" and p.site_of(g.qubits[0]) != p.site_of(g.qubits[1]):
                want.append(i)
        assert len(want) == 3
        assert detect_remote(c, p) == want

    def test_unlowered_input_rejected(self):
        c = parse_qasm("qreg q[2]; swap q[0],q[1];")
        with pytest.raises(ValueError, match="lowered"):
            detect_remote(c, partition_qubits(2))


class TestResourceCounts:
    """Per-protocol tallies for a single remote CNOT."""

    def test_cat_comm(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.CAT_COMM)
        assert counts(dc) == (2, 1, 2, 2)

    def test_one_tp(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.ONE_TP)
        assert counts(dc) == (2, 1, 2, 1)

    def test_two_tp(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TWO_TP)
        assert counts(dc) == (3, 2, 4, 2)

    def test_tp_safe(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TP_SAFE)
        assert counts(dc) == (6, 2, 4, 2)

    def test_monolithic(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.MONOLITHIC)
        assert counts(dc) == (1, 0, 0, 0)

    def test_empty_circuit_all_zero(self):
        dc = compile_circuit(parse_qasm("qreg q[2];"), Scheme.CAT_COMM)
        assert count_resources(dc) == ResourceCount(0, 0, 0, 0)

    def test_counts_scale_with_gate_count(self):
        src = "qreg q[2]; cx q[0],q[1]; cx q[0],q[1]; cx q[0],q[1];"
        dc = compile_circuit(parse_qasm(src), Scheme.TP_SAFE)
        assert counts(dc) == (18, 6, 12, 6)


class TestCatTemplate:
    def test_event_sequence(self):
        """Entangle, far-side CNOT, disentangle; control never moves."""
        dc = compile_circuit(remote_cnot_circuit(), Scheme.CAT_COMM)
        kinds = [type(e).__name__ for e in dc.events]
        assert kinds == [
            "EbitRequest",
            "LocalGate",  # cx control -> near comm
            "Measure",
            "ClassicalMessage",
            "ConditionalCorrection",
            "Reinit",
            "LocalGate",  # cx far comm -> target
            "LocalGate",  # h far comm
            "Measure",
            "ClassicalMessage",
            "ConditionalCorrection",
            "Reinit",
        ]
        ebit = dc.events[0]
        assert (ebit.qubit_a, ebit.qubit_b) == (2, 4)
        assert dc.events[1].gate.qubits == (0, 2)
        assert dc.events[4].pauli == "x" and dc.events[4].qubit == 4
        assert dc.events[6].gate.qubits == (4, 1)
        assert dc.events[10].pauli == "z" and dc.events[10].qubit == 0
        assert dc.result_wires == (0, 1)

    def test_message_directions(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.CAT_COMM)
        msgs = [e for e in dc.events if isinstance(e, ClassicalMessage)]
        assert (msgs[0].src, msgs[0].dst) == (Site.QPU_A, Site.QPU_B)
        assert (msgs[1].src, msgs[1].dst) == (Site.QPU_B, Site.QPU_A)
        assert all(len(m.tags) == 1 for m in msgs)


class TestOneTpTemplate:
    def test_event_sequence(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.ONE_TP)
        kinds = [type(e).__name__ for e in dc.events]
        assert kinds == [
            "EbitRequest",
            "LocalGate",  # cx control -> near comm (BSM half 1)
            "LocalGate",  # h control (BSM half 2)
            "Measure",
            "Measure",
            "ClassicalMessage",
            "ConditionalCorrection",
            "ConditionalCorrection",
            "Reinit",
            "Reinit",
            "LocalGate",  # the remote CNOT, now local on QPU-B
        ]
        # Both teleportation tags travel in one message.
        msg = dc.events[5]
        assert len(msg.tags) == 2
        assert (msg.src, msg.dst) == (Site.QPU_A, Site.QPU_B)
        # X correction first, driven by the ebit-half measurement.
        assert dc.events[6].pauli == "x"
        assert dc.events[7].pauli == "z"
        final = dc.events[10]
        assert final.gate.kind == "cx" and final.gate.qubits == (4, 1)

    def test_control_wire_relocates(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.ONE_TP)
        assert dc.result_wires == (4, 1)  # parked on QPU-B's first comm qubit


class TestTwoTpTemplate:
    def test_wire_returns_to_origin_comm(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TWO_TP)
        assert dc.result_wires == (2, 1)  # QPU-A's first comm qubit

    def test_second_teleport_uses_extra_far_comm(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TWO_TP)
        ebits = [e for e in dc.events if isinstance(e, EbitRequest)]
        assert len(ebits) == 2
        assert (ebits[0].qubit_a, ebits[0].qubit_b) == (2, 4)
        # Return ebit lands on A's free comm (2, released by the BSM) and
        # needs the second comm qubit on B while 4 still holds the state.
        assert (ebits[1].qubit_a, ebits[1].qubit_b) == (2, 5)


class TestTpSafeTemplate:
    def test_wire_restored_to_processing_home(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TP_SAFE)
        assert dc.result_wires == (0, 1)

    def test_ends_with_three_cnot_swap_and_comm_reset(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TP_SAFE)
        swap = dc.events[-4:-1]
        assert all(isinstance(e, LocalGate) and e.gate.kind == "cx" for e in swap)
        assert [e.gate.qubits for e in swap] == [(2, 0), (0, 2), (2, 0)]
        assert isinstance(dc.events[-1], Reinit) and dc.events[-1].qubit == 2

    def test_comm_qubits_all_freed(self):
        src = "qreg q[2]; cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1];"
        dc = compile_circuit(parse_qasm(src), Scheme.TP_SAFE)
        assert dc.result_wires == (0, 1)
        assert counts(dc) == (18, 6, 12, 6)


class TestMirrorSymmetry:
    def test_control_on_b_mirrors_cat(self):
        fwd = compile_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];"), Scheme.CAT_COMM)
        rev = compile_circuit(parse_qasm("qreg q[2]; cx q[1],q[0];"), Scheme.CAT_COMM)
        assert [type(e).__name__ for e in fwd.events] == [type(e).__name__ for e in rev.events]
        first_msg = [e for e in rev.events if isinstance(e, ClassicalMessage)][0]
        assert (first_msg.src, first_msg.dst) == (Site.QPU_B, Site.QPU_A)
        assert counts(fwd) == counts(rev)

    @pytest.mark.parametrize("scheme", [Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE])
    def test_control_on_b_same_resources(self, scheme):
        fwd = compile_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];"), scheme)
        rev = compile_circuit(parse_qasm("qreg q[2]; cx q[1],q[0];"), scheme)
        assert counts(fwd) == counts(rev)


class TestOccupancyConflicts:
    def test_one_tp_exhausts_far_comm_pool(self):
        # Two teleports park wires on both far comm qubits; the third fails.
        src = "qreg q[6]; cx q[0],q[3]; cx q[1],q[4]; cx q[2],q[5];"
        with pytest.raises(SchemeInapplicableError) as err:
            compile_circuit(parse_qasm(src), Scheme.ONE_TP)
        assert err.value.gate_index == 2
        assert "parked" in str(err.value)

    def test_two_tp_exhausts_origin_comm_pool(self):
        src = "qreg q[6]; cx q[0],q[3]; cx q[1],q[4]; cx q[2],q[5];"
        with pytest.raises(SchemeInapplicableError) as err:
            compile_circuit(parse_qasm(src), Scheme.TWO_TP)
        assert err.value.gate_index == 2

    def test_one_tp_two_teleports_fit(self):
        src = "qreg q[6]; cx q[0],q[3]; cx q[1],q[4];"
        dc = compile_circuit(parse_qasm(src), Scheme.ONE_TP)
        assert dc.result_wires[0] == 8  # first B comm
        assert dc.result_wires[1] == 9  # second B comm

    def test_cat_never_conflicts(self):
        src = "qreg q[6]; " + " ".join("cx q[0],q[3];" for _ in range(5))
        dc = compile_circuit(parse_qasm(src), Scheme.CAT_COMM)
        assert counts(dc) == (10, 5, 10, 10)

    def test_one_tp_relocated_wire_gates_locally_afterwards(self):
        # After cx 0,3 the control lives on QPU-B, so cx 0,4 is local.
        src = "qreg q[6]; cx q[0],q[3]; cx q[0],q[4];"
        dc = compile_circuit(parse_qasm(src), Scheme.ONE_TP)
        assert counts(dc) == (3, 1, 2, 1)


class TestPassThrough:
    def test_no_remote_gates_matches_monolithic_events(self):
        src = "qreg q[4]; h q[0]; cx q[0],q[1]; cx q[3],q[2]; t q[3];"
        circuit = parse_qasm(src)
        mono = compile_circuit(circuit, Scheme.MONOLITHIC)
        for scheme in (Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE):
            dist = compile_circuit(circuit, scheme)
            assert dist.events == mono.events
            assert dist.remote_gates == ()

    def test_trailing_measures_and_barriers_carry_no_events(self):
        src = "qreg q[2]; creg c[2]; cx q[0],q[1]; barrier q; measure q -> c;"
        bare = compile_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];"), Scheme.CAT_COMM)
        dc = compile_circuit(parse_qasm(src), Scheme.CAT_COMM)
        assert dc.events == bare.events


class TestStructure:
    @pytest.mark.parametrize(
        "scheme",
        [Scheme.MONOLITHIC, Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE],
    )
    def test_compiled_output_validates(self, scheme):
        src = "qreg q[3]; h q[0]; cx q[0],q[2]; cx q[1],q[2]; cx q[0],q[1];"
        dc = compile_circuit(parse_qasm(src), scheme)
        dc.validate()

    @pytest.mark.parametrize(
        "scheme",
        [Scheme.MONOLITHIC, Scheme.CAT_COMM, Scheme.ONE_TP, Scheme.TWO_TP, Scheme.TP_SAFE],
    )
    def test_source_is_lowered_input(self, scheme):
        src = "qreg q[3]; h q[0]; cx q[0],q[2]; t q[1]; cx q[1],q[2]; measure q[0] -> c[0];"
        circuit = parse_qasm("creg c[3]; " + src, name="three-wire")
        dc = compile_circuit(circuit, scheme)
        assert dc.source == lower_to_basis(circuit)
        assert dc.name == "three-wire"
        assert dc.n_processing == 3
        with pytest.raises(AttributeError):
            dc.name = "renamed"

    def test_placement_roles_and_sites(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.CAT_COMM)
        assert dc.n_total == 6
        roles = [q.role for q in dc.placement]
        assert roles == [Role.PROCESSING] * 2 + [Role.COMMUNICATION] * 4
        sites = [q.site for q in dc.placement]
        assert sites == [Site.QPU_A, Site.QPU_B, Site.QPU_A, Site.QPU_A, Site.QPU_B, Site.QPU_B]

    def test_ebit_requested_at_first_use(self):
        src = "qreg q[2]; h q[0]; h q[1]; cx q[0],q[1];"
        dc = compile_circuit(parse_qasm(src), Scheme.CAT_COMM)
        assert isinstance(dc.events[0], LocalGate)
        assert isinstance(dc.events[1], LocalGate)
        assert isinstance(dc.events[2], EbitRequest)

    def test_scheme_parsing(self):
        assert Scheme.from_name("cat") is Scheme.CAT_COMM
        assert Scheme.from_name("1TP") is Scheme.ONE_TP
        with pytest.raises(ValueError, match="unknown scheme"):
            Scheme.from_name("3tp")

    def test_scheme_must_be_a_scheme(self):
        # A scheme's name once fell through to the TP-safe lowering.
        with pytest.raises(TypeError, match="^scheme must be a Scheme, got 'cat'$"):
            compile_circuit(parse_qasm("qreg q[2]; cx q[0],q[1];"), "cat")

    def test_partition_must_cover_wires(self):
        with pytest.raises(ValueError, match="cover"):
            compile_circuit(
                parse_qasm("qreg q[3]; cx q[0],q[2];"),
                Scheme.CAT_COMM,
                partition=partition_qubits(2),
            )


class TestReport:
    def test_report_contents(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.TWO_TP)
        rep = compile_report(dc)
        assert rep["scheme"] == "2tp"
        assert rep["partition"] == {"qpu_a": [0], "qpu_b": [1]}
        assert rep["remote_gates"] == [
            {"op_index": 0, "control_wire": 0, "target_wire": 1, "scheme": "2tp"}
        ]
        assert rep["resources"] == {
            "n_cnot": 3,
            "n_ebit": 2,
            "n_meas": 4,
            "n_classical_msgs": 2,
        }
        assert rep["result_wires"] == [2, 1]

    def test_text_rendering(self):
        dc = compile_circuit(remote_cnot_circuit(), Scheme.CAT_COMM)
        text = report_to_text(compile_report(dc))
        assert "scheme:       cat" in text
        assert "n_ebit=1" in text

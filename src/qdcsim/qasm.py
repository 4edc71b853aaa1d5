"""openQASM 2 front end: parse a practical subset and lower to U3 + CNOT.

The parser accepts the statements that benchmark exports actually use:
the version header, include, qreg/creg, barrier, end-of-circuit measure,
and a fixed gate subset (u1/u2/u3/u/p, x, y, z, h, s, sdg, t, tdg, rx, ry,
rz, cx, cz, cp, swap).  Multiple quantum registers are concatenated into one
flat wire space in declaration order.  Anything outside the subset raises
:class:`QasmError` with a 1-based line/column span instead of crashing.

The lexer is one compiled pattern with one named group per token kind; a
token's column is its offset from the start of its line.  ``//`` comments
run to the end of the line.  The version header is optional, but when given
it must name major version 2 (``2``, ``2.0``, ``2.1``, ...).

Mid-circuit measurement and classical conditionals are rejected: measured
results never feed back into user circuits here, and the protocol-internal
conditionals produced by the distributing compiler live at the event level,
not in QASM.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from .gates import _U3_ANGLES, SUPPORTED_GATES, Gate


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in the source text."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class QasmError(Exception):
    """Structured parse/validation diagnostic."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        prefix = f"{span}: " if span is not None else ""
        super().__init__(prefix + message)
        self.message = message


@dataclass(frozen=True)
class Circuit:
    """Flat-register circuit IR: gates in program order over n_qubits wires."""

    n_qubits: int
    ops: tuple[Gate, ...]
    name: str = "circuit"

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.ops:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate '{g.kind}' wire {q} outside {self.n_qubits}-qubit register")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One alternative per token kind, tried in this order at each position.
_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r\n]+|//[^\n]*)
      | (?P<arrow>->)
      | "(?P<string>[^"]*)"
      | (?P<symbol>[;,()\[\]+\-*/{}=<>])
      | (?P<number>[\d.]+(?:[eE][+-]?[\d.]*)?)
      | (?P<id>\w+)""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # id | number | string | arrow | eof, or the symbol itself
    text: str
    span: SourceSpan


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        span = SourceSpan(line, pos - line_start + 1)
        m = _TOKEN.match(text, pos)
        # \w also matches numeric characters that are not decimal digits.
        if m is None or (m.lastgroup == "id" and not (text[pos].isalpha() or text[pos] == "_")):
            if text[pos] == '"':
                raise QasmError("unterminated string literal", span)
            raise QasmError(f"unexpected character {text[pos]!r}", span)
        kind, matched = m.lastgroup, m.group()
        if kind != "skip":
            word = m.group(kind)  # a string's text is what lies between its quotes
            tokens.append(_Token(word if kind == "symbol" else kind, word, span))
        if "\n" in matched:
            line += matched.count("\n")
            line_start = pos + matched.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", SourceSpan(line, pos - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass
class _Register:
    name: str
    size: int
    offset: int

    def wires(self, idx: int | None) -> range:
        """The flat wire of ``name[idx]``, or every wire of the register when ``idx`` is None."""
        first = self.offset if idx is None else self.offset + idx
        return range(first, first + (self.size if idx is None else 1))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.qregs: dict[str, _Register] = {}
        self.cregs: dict[str, _Register] = {}
        self.n_qubits = 0
        self.ops: list[Gate] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, *kinds: str) -> str | None:
        """Consume the next token if its kind is one of ``kinds``; return that kind."""
        kind = self.peek().kind
        if kind in kinds:
            self.pos += 1
            return kind
        return None

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise QasmError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    def parse_list(self, parse_item: Callable[[], object]) -> list:
        """One or more comma-separated items."""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        return items

    def parse_number(self, convert: Callable[[str], Any], what: str) -> tuple[Any, _Token]:
        """The next token, which must be a number, and its value as read by ``convert``."""
        tok = self.expect("number")
        try:
            return convert(tok.text), tok
        except ValueError:
            raise QasmError(f"bad {what} {tok.text!r}", tok.span) from None

    # -- expressions for gate parameters ------------------------------------

    def parse_expr(self) -> float:
        value = self.parse_term()
        while op := self.accept("+", "-"):
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> float:
        value = self.parse_factor()
        while op := self.accept("*", "/"):
            divisor = self.peek()
            rhs = self.parse_factor()
            if op == "*":
                value *= rhs
            elif rhs == 0.0:
                raise QasmError("division by zero in gate parameter", divisor.span)
            else:
                value /= rhs
        return value

    def parse_factor(self) -> float:
        if self.accept("-"):
            return -self.parse_factor()
        if self.accept("+"):
            return self.parse_factor()
        if self.accept("("):
            value = self.parse_expr()
            self.expect(")")
            return value
        if self.peek().kind == "number":
            return self.parse_number(float, "numeric literal")[0]
        tok = self.advance()
        if tok.kind == "id" and tok.text == "pi":
            return math.pi
        raise QasmError(f"expected a numeric parameter, found {tok.text or 'end of input'!r}", tok.span)

    # -- operands ------------------------------------------------------------

    def parse_operand(self, regs: dict[str, _Register], what: str) -> tuple[_Register, int | None]:
        tok = self.expect("id")
        reg = regs.get(tok.text)
        if reg is None:
            raise QasmError(f"unknown {what} register {tok.text!r}", tok.span)
        if not self.accept("["):
            return reg, None
        idx, idx_tok = self.parse_number(int, "index")
        self.expect("]")
        if not 0 <= idx < reg.size:
            raise QasmError(
                f"index {idx} out of range for {what} register {reg.name!r} of size {reg.size}",
                idx_tok.span,
            )
        return reg, idx

    def parse_qubit(self) -> tuple[_Register, int | None]:
        return self.parse_operand(self.qregs, "quantum")

    # -- statements ----------------------------------------------------------

    def parse_program(self) -> None:
        tok = self.peek()
        if tok.kind == "id" and tok.text == "OPENQASM":
            self.advance()
            version = self.expect("number")
            if not re.fullmatch(r"2(\.\d*)?", version.text):
                raise QasmError(f"unsupported openQASM version {version.text}", version.span)
            self.expect(";")
        while self.peek().kind != "eof":
            self.parse_statement()

    def parse_statement(self) -> None:
        tok = self.advance()
        if tok.kind != "id":
            raise QasmError(f"expected a statement, found {tok.text!r}", tok.span)
        word = tok.text
        if word == "include":
            self.expect("string")
            self.expect(";")
        elif word in ("qreg", "creg"):
            self.parse_register(word)
        elif word == "barrier":
            # Operands are parsed for validity but the marker carries no wires.
            self.parse_list(self.parse_qubit)
            self.expect(";")
            self.ops.append(Gate("barrier", ()))
        elif word == "measure":
            self.parse_measure(tok.span)
        elif word == "if":
            raise QasmError("classical conditionals ('if') are not supported", tok.span)
        elif word in ("gate", "opaque", "reset"):
            raise QasmError(f"'{word}' statements are not supported", tok.span)
        elif word == "OPENQASM":
            raise QasmError("version header must be the first statement", tok.span)
        else:
            self.parse_gate_call(tok)

    def parse_register(self, which: str) -> None:
        name_tok = self.expect("id")
        name = name_tok.text
        if name in self.qregs or name in self.cregs:
            raise QasmError(f"register {name!r} already defined", name_tok.span)
        self.expect("[")
        size, size_tok = self.parse_number(int, "register size")
        if size < 1:
            raise QasmError(f"register size must be positive, got {size}", size_tok.span)
        self.expect("]")
        self.expect(";")
        if which == "qreg":
            self.qregs[name] = _Register(name, size, self.n_qubits)
            self.n_qubits += size
        else:
            self.cregs[name] = _Register(name, size, 0)

    def parse_measure(self, span: SourceSpan) -> None:
        qreg, qidx = self.parse_qubit()
        self.expect("arrow")
        creg, cidx = self.parse_operand(self.cregs, "classical")
        self.expect(";")
        if (qidx is None) != (cidx is None):
            raise QasmError("measure operands must be both indexed or both registers", span)
        if qidx is None and qreg.size != creg.size:
            raise QasmError(
                f"cannot broadcast measure: {qreg.name!r} has {qreg.size} qubits, "
                f"{creg.name!r} has {creg.size} bits",
                span,
            )
        self.ops.extend(Gate("measure", (q,)) for q in qreg.wires(qidx))

    def parse_gate_call(self, name_tok: _Token) -> None:
        name = name_tok.text
        if name not in SUPPORTED_GATES:
            raise QasmError(f"unsupported gate {name!r}", name_tok.span)
        want_qubits, want_params = SUPPORTED_GATES[name]
        params: list[float] = []
        if self.accept("(") and not self.accept(")"):
            params = self.parse_list(self.parse_expr)
            self.expect(")")
        if len(params) != want_params:
            raise QasmError(
                f"gate {name!r} expects {want_params} parameter(s), got {len(params)}",
                name_tok.span,
            )
        operands = self.parse_list(self.parse_qubit)
        self.expect(";")
        if len(operands) != want_qubits:
            raise QasmError(
                f"gate {name!r} expects {want_qubits} operand(s), got {len(operands)}",
                name_tok.span,
            )
        if want_qubits == 1:
            reg, idx = operands[0]
            self.ops.extend(Gate(name, (q,), tuple(params)) for q in reg.wires(idx))
        else:
            wires = []
            for reg, idx in operands:
                if idx is None:
                    raise QasmError(
                        f"two-qubit gate {name!r} needs indexed operands, got register {reg.name!r}",
                        name_tok.span,
                    )
                wires.append(reg.offset + idx)
            if wires[0] == wires[1]:
                raise QasmError(f"gate {name!r} operands must be distinct wires", name_tok.span)
            self.ops.append(Gate(name, tuple(wires), tuple(params)))


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse openQASM 2 source into a :class:`Circuit`.

    Raises :class:`QasmError` with a source span on any syntax problem,
    unsupported construct, register clash, or out-of-range index.
    """
    parser = _Parser(_lex(text))
    parser.parse_program()
    if parser.n_qubits == 0:
        raise QasmError("no quantum register declared")
    seen_measure = False
    for g in parser.ops:
        if g.kind == "measure":
            seen_measure = True
        elif seen_measure and g.kind != "barrier":
            raise QasmError("mid-circuit measurement is not supported; measures must come last")
    return Circuit(parser.n_qubits, tuple(parser.ops), name=name)


# ---------------------------------------------------------------------------
# Lowering to the U3 + CNOT basis
# ---------------------------------------------------------------------------

def _lower_gate(g: Gate) -> list[Gate]:
    kind, q, p = g.kind, g.qubits, g.params
    if kind in ("cx", "measure", "barrier"):
        return [g]
    if kind in _U3_ANGLES:
        return [Gate("u3", q, _U3_ANGLES[kind](*p))]
    if kind == "cz":
        h = Gate("u3", (q[1],), _U3_ANGLES["h"]())
        return [h, Gate("cx", q), h]
    if kind == "cp":
        half = p[0] / 2.0
        return [
            Gate("u3", (q[0],), (0.0, 0.0, half)),
            Gate("cx", q),
            Gate("u3", (q[1],), (0.0, 0.0, -half)),
            Gate("cx", q),
            Gate("u3", (q[1],), (0.0, 0.0, half)),
        ]
    if kind == "swap":
        a, b = q
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    raise ValueError(f"no lowering for gate kind '{kind}'")


def lower_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite every gate into {u3, cx}; measure/barrier pass through.

    Unitary-equivalent to the input up to global phase, and idempotent.
    """
    ops: list[Gate] = []
    for g in circuit.ops:
        ops.extend(_lower_gate(g))
    return Circuit(circuit.n_qubits, tuple(ops), name=circuit.name)

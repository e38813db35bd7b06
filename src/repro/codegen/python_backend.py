"""Python emission and in-process compilation of the step IR.

The generated code is a plain Python class with

* one attribute per delay register (``self.z_<signal>``),
* a ``step(inputs, oracle=None, observe=None)`` method performing one
  reaction: ``inputs`` maps input signal names (and, for programs with
  several free clocks, root presence flags) to values; ``oracle`` is an
  optional callable used to fetch the value of an input that the clock
  calculus requires but that is missing from ``inputs``; ``observe``, when a
  dict is supplied, receives the value of every signal present at this
  reaction (used by the test harness to compare against the reference
  interpreter).

``compile_step`` wraps the generated source in a :class:`CompiledProcess`
handle, which compiles and executes it on first use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import CodeGenerationError, SimulationError
from ..graph.scheduling import Schedule
from ..lang.types import SignalType
from .ir import (
    Binary,
    ClockChoice,
    ComputeValue,
    EmitOutput,
    FlagAnd,
    FlagAndNot,
    FlagExpr,
    FlagOr,
    FlagRef,
    GenerationStyle,
    Guard,
    Lit,
    ReadInput,
    ReadRegister,
    SetFlagFormula,
    SetFlagPartition,
    SetFlagRoot,
    SigRef,
    StepIR,
    Stmt,
    Unary,
    UpdateRegister,
    ValueExpr,
    build_step_ir,
)

__all__ = [
    "generate_python_source",
    "emit_statement_lines",
    "compile_step",
    "load_step_class",
    "CompiledProcess",
]


_BINARY_OPERATORS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "modulo": "%",
    "and": "and",
    "or": "or",
    "=": "==",
    "/=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _literal(value: Union[bool, int, float]) -> str:
    return repr(value)


def _flag(class_id: int) -> str:
    return f"h{class_id}"


def _signal_var(name: str) -> str:
    return f"s_{name}"


def _value_expr(expression: ValueExpr) -> str:
    if isinstance(expression, SigRef):
        return _signal_var(expression.signal)
    if isinstance(expression, Lit):
        return _literal(expression.value)
    if isinstance(expression, Unary):
        if expression.operator == "not":
            return f"(not {_value_expr(expression.operand)})"
        return f"(- {_value_expr(expression.operand)})"
    if isinstance(expression, Binary):
        operator = expression.operator
        if operator == "xor":
            return f"(bool({_value_expr(expression.left)}) != bool({_value_expr(expression.right)}))"
        if operator == "/" and expression.integer:
            return f"({_value_expr(expression.left)} // {_value_expr(expression.right)})"
        python_operator = _BINARY_OPERATORS.get(operator)
        if python_operator is None:
            raise CodeGenerationError(f"unsupported operator {operator!r}")
        return f"({_value_expr(expression.left)} {python_operator} {_value_expr(expression.right)})"
    if isinstance(expression, ClockChoice):
        return (
            f"({_value_expr(expression.then_value)} if {_flag(expression.class_id)}"
            f" else {_value_expr(expression.else_value)})"
        )
    raise CodeGenerationError(f"unsupported value expression {expression!r}")


def _flag_expr(expression: FlagExpr) -> str:
    if isinstance(expression, FlagRef):
        return _flag(expression.class_id)
    if isinstance(expression, FlagAnd):
        return f"({_flag_expr(expression.left)} and {_flag_expr(expression.right)})"
    if isinstance(expression, FlagOr):
        return f"({_flag_expr(expression.left)} or {_flag_expr(expression.right)})"
    if isinstance(expression, FlagAndNot):
        return f"({_flag_expr(expression.left)} and not {_flag_expr(expression.right)})"
    raise CodeGenerationError(f"unsupported flag expression {expression!r}")


def _emit_statement(statement: Stmt, lines: List[str], indent: int, observable: bool) -> None:
    pad = "    " * indent
    if isinstance(statement, SetFlagRoot):
        lines.append(
            f"{pad}{_flag(statement.class_id)} = bool(inputs.get({statement.input_key!r}, "
            f"{statement.default!r}))"
        )
    elif isinstance(statement, SetFlagPartition):
        value = _signal_var(statement.condition)
        test = f"bool({value})" if statement.polarity else f"(not {value})"
        if statement.parent_id is None:
            lines.append(f"{pad}{_flag(statement.class_id)} = {test}")
        else:
            lines.append(
                f"{pad}{_flag(statement.class_id)} = {_flag(statement.parent_id)} and {test}"
            )
    elif isinstance(statement, SetFlagFormula):
        lines.append(f"{pad}{_flag(statement.class_id)} = {_flag_expr(statement.formula)}")
    elif isinstance(statement, ReadInput):
        variable = _signal_var(statement.signal)
        lines.append(f"{pad}if {statement.signal!r} in inputs:")
        lines.append(f"{pad}    {variable} = inputs[{statement.signal!r}]")
        lines.append(f"{pad}elif oracle is not None:")
        lines.append(f"{pad}    {variable} = oracle({statement.signal!r})")
        lines.append(f"{pad}else:")
        lines.append(
            f"{pad}    raise SimulationError("
            f"'input signal {statement.signal} is required at this instant')"
        )
        if observable:
            lines.append(f"{pad}if observe is not None:")
            lines.append(f"{pad}    observe[{statement.signal!r}] = {variable}")
    elif isinstance(statement, ReadRegister):
        lines.append(f"{pad}{_signal_var(statement.signal)} = self.{statement.register}")
        if observable:
            lines.append(f"{pad}if observe is not None:")
            lines.append(
                f"{pad}    observe[{statement.signal!r}] = {_signal_var(statement.signal)}"
            )
    elif isinstance(statement, ComputeValue):
        lines.append(
            f"{pad}{_signal_var(statement.signal)} = {_value_expr(statement.expression)}"
        )
        if observable:
            lines.append(f"{pad}if observe is not None:")
            lines.append(
                f"{pad}    observe[{statement.signal!r}] = {_signal_var(statement.signal)}"
            )
    elif isinstance(statement, EmitOutput):
        lines.append(
            f"{pad}outputs[{statement.signal!r}] = {_signal_var(statement.signal)}"
        )
    elif isinstance(statement, UpdateRegister):
        lines.append(f"{pad}self.{statement.register} = {_value_expr(statement.source)}")
    elif isinstance(statement, Guard):
        lines.append(f"{pad}if {_flag(statement.class_id)}:")
        if statement.body:
            for inner in statement.body:
                _emit_statement(inner, lines, indent + 1, observable)
        else:
            lines.append(f"{pad}    pass")
    else:  # pragma: no cover - exhaustive over statement kinds
        raise CodeGenerationError(f"unsupported statement {statement!r}")


def emit_statement_lines(
    statements: List[Stmt], indent: int = 2, observable: bool = True
) -> List[str]:
    """The statement body of the generated step, as a list of source lines."""
    lines: List[str] = []
    for statement in statements:
        _emit_statement(statement, lines, indent, observable)
    return lines


def generate_python_source(ir: StepIR, observable: bool = True) -> str:
    """Render the step IR as Python source defining a ``Step`` class."""
    name = ir.name
    register_inits = [
        (register.register, _literal(register.initial)) for register in ir.registers
    ]
    class_name = f"{name}_step".replace("-", "_")
    lines: List[str] = []
    lines.append('"""Generated by the SIGNAL reproduction compiler -- do not edit."""')
    lines.append("")
    lines.append("from repro.errors import SimulationError")
    lines.append("")
    lines.append("")
    lines.append(f"class {class_name}:")
    lines.append(f'    """Reaction function of process {name} ({ir.style.value} style)."""')
    lines.append("")
    lines.append("    def __init__(self):")
    if register_inits:
        for register, literal in register_inits:
            lines.append(f"        self.{register} = {literal}")
    else:
        lines.append("        pass")
    lines.append("")
    lines.append("    def reset(self):")
    if register_inits:
        for register, literal in register_inits:
            lines.append(f"        self.{register} = {literal}")
    else:
        lines.append("        pass")
    lines.append("")
    if observable:
        lines.append("    def step(self, inputs, oracle=None, observe=None):")
    else:
        lines.append("    def step(self, inputs, oracle=None):")
    lines.append("        outputs = {}")
    for class_id in ir.initialized_flags:
        lines.append(f"        {_flag(class_id)} = False")
    lines.extend(emit_statement_lines(ir.statements, indent=2, observable=observable))
    lines.append("        return outputs")
    lines.append("")
    return "\n".join(lines)


@dataclass
class CompiledProcess:
    """An executable compiled SIGNAL process.

    The generated source is compiled and executed lazily, by
    :func:`load_step_class`, the first time the step is needed: the first
    ``step``, ``reset``, ``fresh`` or read of ``step_instance``.  Producing
    a record or serving a source from a compiled process therefore never
    pays for loading it, and ``fresh()`` copies share the loaded class, so
    one compiled source is executed at most once.
    """

    name: str
    style: GenerationStyle
    source: str
    #: the step IR the source was generated from; ``None`` for executables
    #: rehydrated from a stored artifact record, where only the generated
    #: source survives serialization
    ir: Optional[StepIR]
    inputs: List[str]
    outputs: List[str]
    #: (input key, default) for every free clock of the program
    root_flags: List[Tuple[int, str, bool]]
    types: Dict[str, SignalType] = field(default_factory=dict)
    #: whether the generated step supports the ``observe=`` parameter
    observable: bool = True
    _instance: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def step_instance(self) -> object:
        """The step object holding this process's delay registers."""
        instance = self._instance
        if instance is None:
            with _LOAD_LOCK:
                if self._instance is None:
                    step_class = load_step_class(self.source, self.name)
                    self._instance = _prepare_step_instance(step_class(), self.observable)
                instance = self._instance
        return instance

    def step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        oracle: Optional[Callable[[str], object]] = None,
        observe: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Run one reaction and return the present outputs.

        ``inputs`` is passed to the generated step as is: the step only
        reads it (``in``, ``[]`` and ``.get``), so any mapping will do.
        """
        instance = self._instance
        if instance is None:
            instance = self.step_instance
        return instance.step(_NO_INPUTS if inputs is None else inputs, oracle, observe)

    def run(
        self,
        input_trace: List[Mapping[str, object]],
        oracle: Optional[Callable[[str], object]] = None,
    ) -> List[Dict[str, object]]:
        """Run one reaction per element of ``input_trace`` and collect outputs."""
        return [self.step(instant, oracle) for instant in input_trace]

    def reset(self) -> None:
        self.step_instance.reset()

    def fresh(self) -> "CompiledProcess":
        """A new executable instance of the same compiled code.

        The returned process shares the immutable artifacts (source, IR,
        types) and the loaded step class, but has its own step instance
        with freshly initialized delay registers, so its state is fully
        isolated from this one.  The class is loaded here if it was not
        yet (the ``observable=False`` wrapper lives on instances, never the
        class, so the class is always pristine) -- never re-executed.
        """
        copy = replace(self)
        copy._instance = _prepare_step_instance(
            type(self.step_instance)(), self.observable
        )
        return copy

    @classmethod
    def from_generated_source(
        cls,
        source: str,
        name: str,
        style: GenerationStyle,
        inputs: List[str],
        outputs: List[str],
        root_flags: List[Tuple[int, str, bool]],
        types: Dict[str, SignalType],
        observable: bool = True,
    ) -> "CompiledProcess":
        """Rebuild an executable from previously generated step source.

        Used by the artifact store (:mod:`repro.service.store`) to rehydrate
        a runnable process from a persisted record without re-running the
        pipeline: the generated source is wrapped exactly like a fresh
        compilation (and loaded on first use like one), but no IR is
        available (``ir`` is None).
        """
        return cls(
            name=name,
            style=style,
            source=source,
            ir=None,
            inputs=list(inputs),
            outputs=list(outputs),
            root_flags=[tuple(flag) for flag in root_flags],
            types=dict(types),
            observable=observable,
        )


#: serializes first loads, so racing threads share one step instance
_LOAD_LOCK = threading.Lock()
#: the inputs of a step called with ``inputs=None``
_NO_INPUTS: Mapping[str, object] = MappingProxyType({})


def _prepare_step_instance(instance: object, observable: bool) -> object:
    if not observable:
        # Normalize the signature so CompiledProcess.step can always pass observe.
        original_step = instance.step

        def step_without_observe(inputs, oracle=None, observe=None):  # noqa: ANN001
            return original_step(inputs, oracle)

        instance.step = step_without_observe  # type: ignore[method-assign]
    return instance


def load_step_class(source: str, name: str) -> type:
    """Compile and execute generated step source; return its step class.

    The only place generated python is executed: :class:`CompiledProcess`
    calls it once, on first use.
    """
    namespace: Dict[str, object] = {"SimulationError": SimulationError}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace[f"{name}_step".replace("-", "_")]  # type: ignore[return-value]


def compile_step(
    schedule: Schedule,
    types: Dict[str, SignalType],
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    observable: bool = True,
    name: Optional[str] = None,
    ir: Optional[StepIR] = None,
) -> CompiledProcess:
    """Generate the Python step for a scheduled program and wrap it.

    ``ir`` is the already-built step IR of ``style``, when the caller has
    one (a compilation shares one IR per style among all its emitters).
    The source is loaded on the returned process's first use, not here.
    """
    if ir is None:
        ir = build_step_ir(schedule, types, style, name)
    return CompiledProcess(
        name=ir.name,
        style=style,
        source=generate_python_source(ir, observable=observable),
        ir=ir,
        inputs=list(ir.inputs),
        outputs=list(ir.outputs),
        root_flags=list(ir.root_flags),
        types=dict(types),
        observable=observable,
    )

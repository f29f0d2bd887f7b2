"""Host + accelerator execution of a complete mini-C program.

The paper's applications are ordinary C functions whose target region
runs on the FPGA while the surrounding statements run on the host (the
π kernel computes ``step`` on the host and reads back ``final_sum``).
:class:`Program` reproduces that split:

* the frontend locates the target region and compiles it through the
  HLS flow into an :class:`~repro.hls.compiler.Accelerator`;
* host statements before/after the region are interpreted directly;
* ``map`` clauses move data: ``to`` scalars pass by value, ``from`` /
  ``tofrom`` scalars become one-element device buffers read back after
  the launch, pointer parameters use caller-provided numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

import numpy as np

from .. import telemetry
from ..frontend import find_kernel_function, parse_source
from ..frontend.ast_nodes import (
    Assign, Binary, Call, Cast, CompoundStmt, DeclStmt, Expr, ExprStmt,
    FloatLiteral, FunctionDef, Identifier, IntLiteral, ReturnStmt, Stmt,
    Ternary, Unary,
)
from ..frontend.errors import SemaError
from ..frontend.pragmas import OmpTargetParallel
from ..frontend.sema import analyze_function, resolve_type_name
from ..frontend.lower import lower_to_kernel
from ..hls.cache import CompileCache, resolve_cache
from ..hls.compiler import Accelerator, HLSCompiler, HLSOptions
from ..ir.types import PointerType, ScalarType
from ..sim.config import SimConfig
from ..sim.executor import SimResult, Simulation

__all__ = ["Program", "ProgramResult"]


@dataclass
class ProgramResult:
    """Return value of one program run."""

    value: Any            # the C function's return value (None for void)
    sim: SimResult        # the accelerator launch's simulation result
    host_env: dict[str, Any]  # final host variable bindings


class Program:
    """A compiled mini-C program with one OpenMP target region."""

    def __init__(self, source: str,
                 defines: Optional[Mapping[str, Union[int, float, str]]] = None,
                 const_env: Optional[Mapping[str, int]] = None,
                 options: Optional[HLSOptions] = None,
                 sim_config: Optional[SimConfig] = None,
                 filename: str = "<source>",
                 compile_cache: Union[CompileCache, None, bool] = None):
        """``compile_cache`` routes the HLS flow through a
        content-addressed :class:`~repro.hls.cache.CompileCache`:
        pass a cache to share compiled accelerators within and across
        processes, ``False`` to force it off, or leave ``None`` for the
        process default (disabled unless configured).  Parsing and
        semantic analysis always run — the host-side statements need
        the AST — but lowering, transforms, scheduling and the area
        model are skipped on a hit.  ``self.cache_status`` records
        ``"hit"``/``"miss"``/``"off"``.
        """

        cache = resolve_cache(compile_cache)
        cached: Optional[Accelerator] = None
        key: Optional[str] = None
        with telemetry.span("frontend", category="frontend",
                            filename=filename):
            self.unit = parse_source(source, filename=filename,
                                     defines=defines)
            self.function: FunctionDef = find_kernel_function(self.unit)
            self.sema = analyze_function(self.function)
            if cache is not None:
                key = cache.key(source, defines=defines, const_env=const_env,
                                options=options)
                cached = cache.load(key)
            kernel = None if cached is not None \
                else lower_to_kernel(self.sema, const_env=const_env)
        if cached is not None:
            self.accelerator: Accelerator = cached
            self.cache_status = "hit"
        else:
            self.accelerator = HLSCompiler(options).compile(kernel)
            if cache is not None:
                cache.store(key, self.accelerator)
            self.cache_status = "miss" if cache is not None else "off"
        self.sim_config = sim_config or SimConfig()
        self._simulation = Simulation(self.accelerator, self.sim_config)

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def simulation(self) -> Simulation:
        """The simulation :meth:`run` uses when given no ``sim_config``.

        Its ``plan_rejections`` say which pipelined loops left the fast
        path, and why.
        """

        return self._simulation

    # ------------------------------------------------------------------
    def run(self, *, sim_config: Optional[SimConfig] = None,
            clock_mhz: Optional[float] = None, **args: Any) -> ProgramResult:
        """Call the program's function with keyword arguments.

        Pointer parameters take numpy arrays; scalars take numbers.
        """

        simulation = self._simulation
        if sim_config is not None:
            simulation = Simulation(self.accelerator, sim_config)
        env: dict[str, Any] = {}
        for param in self.function.params:
            if param.name not in args:
                raise TypeError(f"{self.name}() missing argument {param.name!r}")
            env[param.name] = args[param.name]

        result_value: Any = None
        sim_result: Optional[SimResult] = None
        for stmt in self.function.body.stmts:
            if any(isinstance(p, OmpTargetParallel) for p in stmt.pragmas):
                sim_result = self._launch(simulation, env, clock_mhz)
                continue
            control = self._exec_host_stmt(stmt, env)
            if control is not None:
                result_value = control[0]
                break
        if sim_result is None:
            raise SemaError("program never reached its target region",
                            self.function.location)
        return ProgramResult(result_value, sim_result, env)

    # ------------------------------------------------------------------
    def _launch(self, simulation: Simulation, env: dict[str, Any],
                clock_mhz: Optional[float]) -> SimResult:
        kernel_args: dict[str, Any] = {}
        cells: dict[str, np.ndarray] = {}
        for param in self.accelerator.kernel.params:
            name = param.name
            if name not in env:
                raise TypeError(f"target region captures {name!r} which has no "
                                "host value")
            value = env[name]
            if isinstance(param.type, PointerType):
                if param.attrs.get("scalar_cell"):
                    dtype = np.dtype(param.type.elem.np_dtype_name)  # type: ignore[union-attr]
                    cell = np.array([value], dtype=dtype)
                    cells[name] = cell
                    kernel_args[name] = cell
                else:
                    kernel_args[name] = value
            else:
                kernel_args[name] = value
        result = simulation.run(kernel_args, clock_mhz=clock_mhz)
        for name, cell in cells.items():
            env[name] = cell[0].item()
        return result

    # ------------------------------------------------------------------
    # host statement interpretation
    # ------------------------------------------------------------------
    def _exec_host_stmt(self, stmt: Stmt, env: dict[str, Any]):
        if isinstance(stmt, DeclStmt):
            ty = resolve_type_name(stmt.type_name, stmt.location)
            value: Any = 0.0 if ty.is_float else 0
            if stmt.init is not None:
                value = self._eval_host(stmt.init, env)
                if isinstance(ty, ScalarType):
                    value = float(value) if ty.is_float else int(value)
            env[stmt.name] = value
            return None
        if isinstance(stmt, ExprStmt):
            expr = stmt.expr
            if isinstance(expr, Assign):
                if not isinstance(expr.target, Identifier):
                    raise SemaError("host assignments must target scalars",
                                    stmt.location)
                value = self._eval_host(expr.value, env)
                if expr.op:
                    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
                    value = ops[expr.op](env[expr.target.name], value)
                env[expr.target.name] = value
            else:
                self._eval_host(expr, env)
            return None
        if isinstance(stmt, ReturnStmt):
            value = None if stmt.value is None else self._eval_host(stmt.value, env)
            return (value,)
        if isinstance(stmt, CompoundStmt):
            for inner in stmt.stmts:
                control = self._exec_host_stmt(inner, env)
                if control is not None:
                    return control
            return None
        raise SemaError(f"unsupported host statement {type(stmt).__name__} "
                        "(host code is a straight line of declarations)",
                        stmt.location)

    def _eval_host(self, expr: Expr, env: dict[str, Any]) -> Any:
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, FloatLiteral):
            return expr.value
        if isinstance(expr, Identifier):
            if expr.name not in env:
                raise SemaError(f"host use of unknown name {expr.name!r}",
                                expr.location)
            return env[expr.name]
        if isinstance(expr, Binary):
            left = self._eval_host(expr.left, env)
            right = self._eval_host(expr.right, env)
            ops = {
                "+": lambda: left + right, "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left / right if isinstance(left, float)
                or isinstance(right, float) else int(left / right),
                "%": lambda: left % right,
                "==": lambda: left == right, "!=": lambda: left != right,
                "<": lambda: left < right, "<=": lambda: left <= right,
                ">": lambda: left > right, ">=": lambda: left >= right,
            }
            if expr.op not in ops:
                raise SemaError(f"unsupported host operator {expr.op!r}",
                                expr.location)
            return ops[expr.op]()
        if isinstance(expr, Unary):
            if expr.op == "-":
                return -self._eval_host(expr.operand, env)
            if expr.op == "!":
                return not self._eval_host(expr.operand, env)
            raise SemaError(f"unsupported host unary {expr.op!r}", expr.location)
        if isinstance(expr, Ternary):
            return self._eval_host(expr.then, env) \
                if self._eval_host(expr.cond, env) \
                else self._eval_host(expr.other, env)
        if isinstance(expr, Cast):
            value = self._eval_host(expr.operand, env)
            ty = resolve_type_name(expr.type_tokens[0], expr.location)
            if isinstance(ty, ScalarType):
                return float(value) if ty.is_float else int(value)
            return value
        if isinstance(expr, Call):
            raise SemaError(f"host call to {expr.name!r} is not supported",
                            expr.location)
        raise SemaError(f"unsupported host expression {type(expr).__name__}",
                        expr.location)

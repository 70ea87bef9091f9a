"""IR modules: the unit of compilation, tracing, and analysis."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import IRError
from repro.ir.function import Function, LoopInfo
from repro.ir.instructions import Instruction
from repro.ir.types import StructType, Type


class GlobalVar:
    """A module-level variable with static storage.

    ``initializer`` is an optional flat list of scalar values (row-major
    for arrays, field order for structs) applied when memory is laid out.
    """

    __slots__ = ("name", "type", "initializer")

    def __init__(self, name: str, type: Type, initializer=None):
        self.name = name
        self.type = type
        self.initializer = initializer

    def __repr__(self) -> str:
        return f"<global @{self.name} : {self.type!r}>"


class Module:
    """A compiled program: functions, globals, structs, and loop table."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}
        self.structs: Dict[str, StructType] = {}
        self.loops: Dict[int, LoopInfo] = {}
        self._next_sid = 0
        self._instructions_by_sid: Dict[int, Instruction] = {}

    # -- construction ----------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise IRError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        return var

    def add_struct(self, struct: StructType) -> StructType:
        if struct.name in self.structs:
            raise IRError(f"duplicate struct {struct.name!r}")
        self.structs[struct.name] = struct
        return struct

    def add_loop(self, info: LoopInfo) -> LoopInfo:
        if info.loop_id in self.loops:
            raise IRError(f"duplicate loop id {info.loop_id}")
        self.loops[info.loop_id] = info
        return info

    def next_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def register_instruction(self, instr: Instruction) -> None:
        self._instructions_by_sid[instr.sid] = instr

    # -- queries ----------------------------------------------------------

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function {name!r} in module") from None

    def instruction(self, sid: int) -> Instruction:
        """Look up a static instruction by its module-unique id."""
        try:
            return self._instructions_by_sid[sid]
        except KeyError:
            raise IRError(f"no instruction with sid {sid}") from None

    @property
    def num_instructions(self) -> int:
        return len(self._instructions_by_sid)

    @property
    def sid_bound(self) -> int:
        """One more than the largest sid handed out, so a list of this
        length can be indexed by any sid of the module."""
        return self._next_sid

    def loops_in_function(self, fname: str) -> List[LoopInfo]:
        return [li for li in self.loops.values() if li.function == fname]

    def loop_by_name(self, name: str) -> Optional[LoopInfo]:
        """Find a loop by label or ``function:line`` (both always match,
        regardless of whether the loop carries a label)."""
        for info in self.loops.values():
            if info.label == name:
                return info
            if f"{info.function}:{info.header_line}" == name:
                return info
        return None

    def __repr__(self) -> str:
        return (
            f"<module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals, {len(self.loops)} loops>"
        )

"""AST for the OpenCL-C subset.

Every node carries a ``node_id`` (assigned in parse order) used as the
static site label for memory operations — the frontend's equivalent of
"one load in the source becomes one LSU in hardware".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

_COUNTER = [0]


def _next_id() -> int:
    _COUNTER[0] += 1
    return _COUNTER[0]


def reset_node_ids() -> None:
    """Restart node-id assignment from 1.

    :func:`repro.frontend.parser.parse` calls this at entry, making node
    ids — and therefore the ``"<kernel>:n<id>"`` site labels derived from
    them — a pure function of the source text. That determinism is what
    lets the emulation server run a compile in any worker process and
    still produce trace records byte-identical to an in-process run.
    """
    _COUNTER[0] = 0


def walk(root: "Node") -> Iterator["Node"]:
    """Every node under ``root`` (itself included), in pre-order.

    Iterative rather than a self-recursive closure: a closure that calls
    itself is a reference cycle, which only the cycle collector frees.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        children = []
        for field_name in node.__dataclass_fields__:
            value = getattr(node, field_name)
            for child in (value if isinstance(value, list) else (value,)):
                if isinstance(child, Node):
                    children.append(child)
                elif isinstance(child, tuple):
                    children.extend(element for element in child
                                    if isinstance(element, Node))
        stack.extend(reversed(children))


@dataclass
class Node:
    """Base AST node."""

    def __post_init__(self) -> None:
        self.node_id = _next_id()
        # Source position (1-based), stamped by the parser; 0 means
        # unknown (programmatically built nodes). Plain attributes, not
        # dataclass fields, so subclasses keep their field ordering.
        self.line = 0
        self.column = 0


# -- expressions -----------------------------------------------------------

@dataclass
class IntLiteral(Node):
    value: int


@dataclass
class Name(Node):
    ident: str


@dataclass
class Subscript(Node):
    base: Node
    index: Node


@dataclass
class Call(Node):
    func: str
    args: List[Node]


@dataclass
class AddressOf(Node):
    target: Node


@dataclass
class Unary(Node):
    op: str           # "-" | "!" | "~"
    operand: Node


@dataclass
class Binary(Node):
    op: str
    left: Node
    right: Node


@dataclass
class Cast(Node):
    type_name: str
    operand: Node


@dataclass
class Assign(Node):
    target: Node      # Name or Subscript
    op: str           # "=", "+=", "-=", "*=", "/=", "%="
    value: Node


@dataclass
class IncDec(Node):
    target: Node      # Name
    op: str           # "++" | "--"


# -- statements ------------------------------------------------------------

@dataclass
class Declaration(Node):
    type_name: str
    names: List[Tuple[str, Optional[Node]]]   # (name, initializer)
    #: Private-array sizes by name (``int acc[8];``) — None for scalars.
    array_sizes: dict = field(default_factory=dict)
    #: True for ``__local`` declarations (work-group shared block RAM).
    is_local: bool = False


@dataclass
class ExprStatement(Node):
    expr: Node


@dataclass
class Block(Node):
    statements: List[Node]


@dataclass
class If(Node):
    condition: Node
    then_branch: Node
    else_branch: Optional[Node]


@dataclass
class For(Node):
    init: Optional[Node]
    condition: Optional[Node]
    step: Optional[Node]
    body: Node


@dataclass
class While(Node):
    condition: Node
    body: Node


@dataclass
class SwitchCase(Node):
    label: Optional[Node]          # None for "default:"
    statements: List[Node] = field(default_factory=list)


@dataclass
class Switch(Node):
    subject: Node
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class Return(Node):
    value: Optional[Node]


@dataclass
class Break(Node):
    pass


@dataclass
class Continue(Node):
    pass


# -- top level ---------------------------------------------------------------

@dataclass
class Attribute(Node):
    name: str
    args: List[int]


@dataclass
class ChannelDecl(Node):
    type_name: str
    name: str
    count: Optional[int]          # None for scalar channels
    attributes: List[Attribute]

    @property
    def depth(self) -> Optional[int]:
        for attribute in self.attributes:
            if attribute.name == "depth":
                return attribute.args[0] if attribute.args else 0
        return None


@dataclass
class Parameter(Node):
    type_name: str
    name: str
    is_global_pointer: bool


@dataclass
class KernelDef(Node):
    name: str
    parameters: List[Parameter]
    body: Block
    attributes: List[Attribute]

    @property
    def is_autorun(self) -> bool:
        return any(a.name == "autorun" for a in self.attributes)

    @property
    def num_compute_units(self) -> int:
        for attribute in self.attributes:
            if attribute.name == "num_compute_units" and attribute.args:
                return attribute.args[0]
        return 1


@dataclass
class Program(Node):
    channels: List[ChannelDecl]
    kernels: List[KernelDef]

    def kernel(self, name: str) -> KernelDef:
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(name)

"""A four-instruction register machine: its parser and its one-step semantics.

Program texts are ';'-separated instruction lists, one program per line in a
corpus file, e.g. "INC 0; DECJZ 0 3; JMP 0; HALT".  The input is placed in
register 0.  A run halts by reaching HALT or by walking past the last
instruction; jump targets may point one slot past the end for that reason.
Texts that do not parse are treated as diverging, which keeps the decoding of
program codes total.

``step_state`` is the reference semantics of one step.  The kernel does not
call it: its stretch loop steps each burst in place by the same rules, and
the tests check that loop against ``step_state``.
"""

from __future__ import annotations

from typing import Optional

REGISTER_LIMIT = 32

# opcode numbers used in the packed instruction tuples
OP_INC = 0
OP_DECJZ = 1
OP_JMP = 2
OP_HALT = 3

Program = tuple  # tuple of packed instruction tuples


def parse_program(text: str) -> Optional[Program]:
    """Parse a program text; None means the text diverges by convention."""
    parts = [chunk.strip() for chunk in text.split(";")]
    parts = [chunk for chunk in parts if chunk]
    if not parts:
        return None
    instructions = []
    for chunk in parts:
        fields = chunk.split()
        op = fields[0].upper()
        try:
            if op == "INC" and len(fields) == 2:
                reg = int(fields[1])
                if not 0 <= reg < REGISTER_LIMIT:
                    return None
                instructions.append((OP_INC, reg))
            elif op == "DECJZ" and len(fields) == 3:
                reg, target = int(fields[1]), int(fields[2])
                if not 0 <= reg < REGISTER_LIMIT or target < 0:
                    return None
                instructions.append((OP_DECJZ, reg, target))
            elif op == "JMP" and len(fields) == 2:
                target = int(fields[1])
                if target < 0:
                    return None
                instructions.append((OP_JMP, target))
            elif op == "HALT" and len(fields) == 1:
                instructions.append((OP_HALT,))
            else:
                return None
        except ValueError:
            return None
    size = len(instructions)
    for ins in instructions:
        # a target equal to size is the virtual halt slot past the end
        if ins[0] == OP_DECJZ and ins[2] > size:
            return None
        if ins[0] == OP_JMP and ins[1] > size:
            return None
    return tuple(instructions)


def register_count(program: Program) -> int:
    regs = [ins[1] for ins in program if ins[0] in (OP_INC, OP_DECJZ)]
    return max(regs) + 1 if regs else 1


def step_state(program: Program, state: list) -> bool:
    """Advance one instruction; True when the configuration has halted.

    ``state`` is one flat list, registers first and pc last, as a kernel
    ladder entry is: ``[r0, ..., r_{R-1}, ..., pc]``.  A parsed register
    operand is the register's position in the list.
    """
    pc = state[-1]
    if pc >= len(program):
        return True
    ins = program[pc]
    op = ins[0]
    if op == OP_INC:
        state[ins[1]] += 1
        state[-1] = pc + 1
    elif op == OP_DECJZ:
        reg = ins[1]
        if state[reg] == 0:
            state[-1] = ins[2]
        else:
            state[reg] -= 1
            state[-1] = pc + 1
    elif op == OP_JMP:
        state[-1] = ins[1]
    else:
        return True
    return False


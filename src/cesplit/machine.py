"""A four-instruction register machine and its stepwise simulator.

Program texts are ';'-separated instruction lists, one program per line in a
corpus file, e.g. "INC 0; DECJZ 0 3; JMP 0; HALT".  The input is placed in
register 0.  A run halts by reaching HALT or by walking past the last
instruction; jump targets may point one slot past the end for that reason.
Texts that do not parse are treated as diverging, which keeps the decoding of
program codes total.
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
    """Advance one instruction; True when the configuration has halted."""
    pc = state[0]
    if pc >= len(program):
        return True
    ins = program[pc]
    op = ins[0]
    if op == OP_INC:
        state[1][ins[1]] += 1
        state[0] = pc + 1
    elif op == OP_DECJZ:
        reg = ins[1]
        if state[1][reg] == 0:
            state[0] = ins[2]
        else:
            state[1][reg] -= 1
            state[0] = pc + 1
    elif op == OP_JMP:
        state[0] = ins[1]
    else:
        return True
    return False


def run_steps(program: Program, state: list, budget: int) -> Optional[bool]:
    """Run at most ``budget`` instructions: True when the configuration has
    halted, None when it has settled at a ``JMP`` to its own address, False
    when the budget ran out first.

    The same as calling ``step_state`` up to ``budget`` times and stopping at
    the first True: finding the run halted (at HALT, or past the end, which
    includes a jump to the virtual slot ``size``) uses up one call's worth of
    the budget and leaves the configuration as it was.  A ``JMP`` to its own
    address is a fixed point: stepping one returns None at once, with the
    configuration left there, which is where the rest of the budget (and
    every later burst) would leave it step by step.  A run that arrives at
    one with the budget's last step returns False, and the next call None.
    A settled run never halts, and ``if run_steps(...)`` reads None as not
    halted.

    ``state`` is read as ``[pc, registers, ...]``: the call updates items 0
    and 1, and any items past them belong to the caller (the kernel keeps a
    pair's index, input and program there).  ``pc`` and the registers live
    in locals, so a whole burst costs one Python call.  The registers must
    cover every one the program names (``register_count`` of them, input in
    register 0, as the kernel makes them): an index past the end of the
    program is how the loop sees a run walk off it.
    """
    pc = state[0]
    regs = state[1]
    try:
        for _ in range(budget):
            ins = program[pc]
            op = ins[0]
            if op == OP_DECJZ:
                reg = ins[1]
                if regs[reg]:
                    regs[reg] -= 1
                    pc += 1
                else:
                    pc = ins[2]
            elif op == OP_INC:
                regs[ins[1]] += 1
                pc += 1
            elif op == OP_JMP:
                if ins[1] == pc:  # a jump to itself: the run stays here for good
                    state[0] = pc
                    return None
                pc = ins[1]
            else:
                break
        else:
            state[0] = pc
            return False
    except IndexError:  # program[pc] with pc == len(program)
        pass
    state[0] = pc
    return True


"""Independent correctness oracle for the benchmark.

A GF(2^k) multiply on Python integers and a bit-parallel evaluator for the
netlist text format. Nothing here reads or calls the program under test:
the multiply is checked against the axioms a field must satisfy, and the
evaluator knows only the text format (`input`, `gate <kind> <out> <in...>`,
`output`).

Field elements are Python ints in the polynomial basis: bit i is the
coefficient of alpha^i.
"""

import random


class Field:
    """GF(2^k) defined by the modulus x^k + sum(x^e for e in tail)."""

    def __init__(self, exponents):
        exps = sorted(set(exponents), reverse=True)
        if len(exps) < 2 or exps[-1] != 0:
            raise ValueError(f"modulus needs a degree and a constant term: {exponents}")
        self.k = exps[0]
        self.tail = exps[1:]
        self.mask = (1 << self.k) - 1
        self.tail_int = sum(1 << e for e in self.tail)

    def reduce(self, r):
        # x^k = tail (mod P): fold the bits above k down until none remain.
        k, mask = self.k, self.mask
        while r >> k:
            hi, r = r >> k, r & mask
            for e in self.tail:
                r ^= hi << e
        return r

    def mul(self, a, b):
        if a.bit_length() > b.bit_length():
            a, b = b, a
        r = 0
        while a:
            if a & 1:
                r ^= b
            a >>= 1
            b <<= 1
        return self.reduce(r)

    def random(self, rng):
        return rng.getrandbits(self.k)

    def self_check(self, seed, trials=8):
        """Checks the field axioms on seeded random elements; raises
        AssertionError naming the first one that fails."""
        rng = random.Random(seed)
        for _ in range(trials):
            a, b, c = (self.random(rng) for _ in range(3))
            assert self.mul(a, b) == self.mul(b, a), "multiply is not commutative"
            assert self.mul(self.mul(a, b), c) == self.mul(a, self.mul(b, c)), \
                "multiply is not associative"
            assert self.mul(a, b ^ c) == self.mul(a, b) ^ self.mul(a, c), \
                "multiply does not distribute over XOR"
        a = self.random(rng) | 1
        x = a
        for _ in range(self.k):
            x = self.mul(x, x)
        assert x == a, "a^(2^k) != a"
        x = 1
        for _ in range(self.k):
            x = self.mul(x, 2)
        assert x == self.tail_int, "alpha^k is not the modulus tail"


def parse_alpha_poly(text, k):
    """Parses an element printed as a polynomial in alpha
    (`alpha^3 + alpha + 1`, or `0`) into its int."""
    text = text.strip()
    if text == "0":
        return 0
    v = 0
    for term in text.split("+"):
        term = term.strip()
        if term == "1":
            e = 0
        elif term == "α":
            e = 1
        elif term.startswith("α^") and term[2:].isdigit():
            e = int(term[2:])
        else:
            raise ValueError(f"not a term in alpha: {term!r}")
        if e >= k or v >> e & 1:
            raise ValueError(f"bad exponent {e} for k = {k}")
        v |= 1 << e
    return v


# Opcodes of the evaluator.
AND, OR, XOR, XNOR, NAND, NOR, NOT, BUF, CONST0, CONST1 = range(10)
KINDS = {"and": (AND, 2), "or": (OR, 2), "xor": (XOR, 2), "xnor": (XNOR, 2),
         "nand": (NAND, 2), "nor": (NOR, 2), "not": (NOT, 1), "buf": (BUF, 1),
         "const0": (CONST0, 0), "const1": (CONST1, 0)}


class Circuit:
    """A parsed netlist: input words, gates in file order, output word.

    `gates[i] = (op, out, a, b)` with net indices; `offsets[i]` is the
    offset of gate i's line in the source text, so a fault can be planted
    in the bytes on disk at exactly the gate the oracle flips.
    """

    def __init__(self, text):
        nets = {}
        self.inputs = []
        self.gates = []
        self.offsets = []
        self.output = None
        if not text.isascii():
            raise ValueError("netlist text is not ASCII")
        pos = 0
        for line in text.split("\n"):
            start, pos = pos, pos + len(line) + 1
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            head = tok[0]
            if head == "netlist":
                continue
            if head == "input":
                bits = []
                for name in tok[2:]:
                    if name in nets:
                        raise ValueError(f"net {name} declared twice")
                    nets[name] = len(nets)
                    bits.append(nets[name])
                self.inputs.append(bits)
            elif head == "gate":
                op, arity = KINDS[tok[1]]
                if len(tok) != 3 + arity or tok[2] in nets:
                    raise ValueError(f"bad gate line: {line!r}")
                ins = [nets[n] for n in tok[3:]]  # KeyError: not topological
                nets[tok[2]] = len(nets)
                ins += [0] * (2 - arity)
                self.gates.append((op, nets[tok[2]], ins[0], ins[1]))
                self.offsets.append(start)
            elif head == "output":
                self.output = [nets[n] for n in tok[2:]]
            else:
                raise ValueError(f"unknown line: {line!r}")
        if self.output is None:
            raise ValueError("netlist has no output word")
        self.num_nets = len(nets)

    def evaluate(self, words, lanes, flip=None):
        """Evaluates the circuit on `lanes` input assignments at once.

        `words[w][l]` is the value of input word w in lane l. Returns the
        output word of every lane. `flip = (gate index, op)` evaluates the
        circuit with that one gate's kind replaced.
        """
        full = (1 << lanes) - 1
        v = [0] * self.num_nets
        for bits, values in zip(self.inputs, words):
            for i, net in enumerate(bits):
                x = 0
                for lane, w in enumerate(values):
                    x |= (w >> i & 1) << lane
                v[net] = x
        gates = self.gates
        if flip is not None:
            gates = list(gates)
            _, o, a, b = gates[flip[0]]
            gates[flip[0]] = (flip[1], o, a, b)
        for op, o, a, b in gates:
            if op == AND:
                v[o] = v[a] & v[b]
            elif op == XOR:
                v[o] = v[a] ^ v[b]
            elif op == OR:
                v[o] = v[a] | v[b]
            elif op == XNOR:
                v[o] = ~(v[a] ^ v[b]) & full
            elif op == NAND:
                v[o] = ~(v[a] & v[b]) & full
            elif op == NOR:
                v[o] = ~(v[a] | v[b]) & full
            elif op == NOT:
                v[o] = ~v[a] & full
            elif op == BUF:
                v[o] = v[a]
            else:
                v[o] = full if op == CONST1 else 0
        out = [0] * lanes
        for i, net in enumerate(self.output):
            x = v[net]
            for lane in range(lanes):
                out[lane] |= (x >> lane & 1) << i
        return out


def multiplier_mismatches(circuit, field, seed, lanes=64, flip=None):
    """Lanes (of `lanes` seeded random (A, B) pairs) on which the circuit's
    output differs from A*B. Empty when the circuit multiplies on all."""
    if len(circuit.inputs) != 2 or any(len(b) != field.k for b in circuit.inputs) \
            or len(circuit.output) != field.k:
        raise ValueError("not a two-operand k-bit multiplier signature")
    rng = random.Random(seed)
    a = [field.random(rng) for _ in range(lanes)]
    b = [field.random(rng) for _ in range(lanes)]
    z = circuit.evaluate([a, b], lanes, flip)
    return [l for l in range(lanes) if z[l] != field.mul(a[l], b[l])]

"""Where a float can enter ellwall, pinned: every function's float-producing
sites, found with the stdlib `ast`, against the committed listing
tests/float_sites.txt.  A site is a true division `/` (of ints a float, of
Fractions a Fraction: the scan cannot tell), a float literal, a `float(...)`
call, or a `math` name other than the integer ones (gcd, lcm, isqrt, comb,
perm, factorial).  A new site anywhere shows up as a diff that names its
function, and the integer kernels must hold none at all.

To accept a deliberate change, write the listing anew from the root of a
checkout:

    python3 tests/test_float_sites.py > tests/float_sites.txt
"""

import ast
import difflib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ellwall")
LISTING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "float_sites.txt")
_INT_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial"}

# the integer kernels: the enumeration, the section and wall row evaluators,
# the pair writer, and the integer form and clearing every formula goes through
KERNELS = (
    "destabilize._pair", "destabilize._pairs", "destabilize._gamma_bound", "destabilize._rows",
    "destabilize._survivors", "destabilize._sorted_cells",
    "nslattice._bisection_cell", "nslattice._section_u", "nslattice._section_at",
    "nslattice._cleared", "nslattice._form",
    "walls.LambdaQWall._q", "walls.LambdaQWall._ints",
    "io._pair_text", "io._enumeration_chunks",
)


def _kind(node):
    """The kind of float site node is, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "/"
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return "float literal"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float()"
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in _INT_MATH):
        return "math." + node.attr
    return None


def _sites(tree, module):
    """{qualified function name: [kind, ...]}; a nested function's sites are its own."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, owner + "." + child.name)
                continue
            kind = _kind(child)
            if kind:
                found.setdefault(owner, []).append(kind)
            visit(child, owner)

    visit(tree, module)
    return found


def listing() -> list:
    lines = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found = _sites(ast.parse(fh.read()), name[:-3])
            for owner in sorted(found):
                kinds = found[owner]
                lines.append("%s: %s" % (owner, ", ".join(
                    "%s x%d" % (k, kinds.count(k)) for k in sorted(set(kinds)))))
    return lines


def test_float_sites_match_the_listing():
    with open(LISTING, encoding="utf-8") as fh:
        committed = fh.read().splitlines()
    now = listing()
    diff = "\n".join(difflib.unified_diff(committed, now, "float_sites.txt", "now", lineterm=""))
    assert now == committed, "the float-producing sites moved:\n" + diff


def test_integer_kernels_hold_no_float_site():
    owners = [line.split(":")[0] for line in listing()]
    for kernel in KERNELS:
        assert not [o for o in owners if o == kernel or o.startswith(kernel + ".")], kernel


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in listing()))

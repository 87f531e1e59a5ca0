"""ASCII and TikZ renderers for diagrams and elements.

Both emit deterministic two-row pictures: vertices in two rows of k, cups
drawn as arcs below the top row, caps as arcs above the bottom row, and
through edges as orthogonal poly-lines.  Each edge gets its own horizontal
lane, so pictures are collision-free and stable under re-rendering.  A
block of three or more vertices has no picture: it raises ValueError.
"""

from __future__ import annotations

COLW = 4  # characters per column


def _edges(d, fmt):
    if not d.is_partial_brauer():
        raise ValueError("the %s renderer draws partial Brauer diagrams, not %r" % (fmt, d))
    return d.edges()


def ascii_diagram(d):
    k = d.k
    edges = _edges(d, "ascii")
    lanes = len(edges)
    height = lanes + 3 if lanes else 3
    width = COLW * max(k - 1, 0) + 1
    grid = [[" "] * width for _ in range(height)]

    def put(y, x, ch):
        cur = grid[y][x]
        grid[y][x] = ch if cur in (" ", ch) else "+"

    def horiz(y, xa, xb):
        for x in range(xa + 1, xb):
            put(y, x, "-")
        put(y, xa, "+")
        put(y, xb, "+")

    def vert(x, y0, y1):
        for y in range(y0, y1):
            put(y, x, "|")

    for c in range(k):
        put(0, COLW * c, "o")
        put(height - 1, COLW * c, "o")

    # each edge owns the horizontal row lane+1: cups hang from the top row,
    # caps rise from the bottom row, through edges do both
    for lane, (u, v) in enumerate(edges, start=1):
        row = lane + 1
        if v < k:  # cup
            xa, xb = COLW * u, COLW * v
            horiz(row, xa, xb)
            vert(xa, 1, row)
            vert(xb, 1, row)
        elif u >= k:  # cap
            xa, xb = COLW * (u - k), COLW * (v - k)
            horiz(row, xa, xb)
            vert(xa, row + 1, height - 1)
            vert(xb, row + 1, height - 1)
        else:  # through edge
            xt, xb = COLW * u, COLW * (v - k)
            if xt == xb:
                vert(xt, 1, height - 1)
            else:
                horiz(row, *sorted((xt, xb)))
                vert(xt, 1, row)
                vert(xb, row + 1, height - 1)
    return "\n".join("".join(row).rstrip() for row in grid)


def ascii_element(x):
    """Signed pictures, one per diagram term, in canonical term order."""
    if not x.terms:
        return "0"
    wrap = {"diagram": "", "bar": "bar", "tilde": "tilde"}[x.basis]
    parts = []
    for d in sorted(x.terms):
        c = x.terms[d]
        head = "(%s) * %s" % (c, wrap) if wrap else "(%s) *" % (c,)
        parts.append(head + "\n" + ascii_diagram(d))
    return "\n\n".join(parts)


def tikz_diagram(d, standalone=True):
    k = d.k
    lines = []
    if standalone:
        lines.append("\\documentclass[tikz]{standalone}")
        lines.append("\\begin{document}")
    lines.append("\\begin{tikzpicture}[scale=0.35,thick]")
    lines.append("\\tikzstyle{vertex}=[shape=circle,minimum size=4pt,"
                 "inner sep=1pt,draw,fill=black]")
    for c in range(k):
        lines.append("\\node[vertex] (T%d) at (%.1f, 1) {};" % (c + 1, 1.5 * c))
        lines.append("\\node[vertex] (B%d) at (%.1f, -1) {};" % (c + 1, 1.5 * c))
    for (u, v) in _edges(d, "tikz"):
        if v < k:
            lines.append("\\draw (T%d) .. controls +(0.5,-0.7) and +(-0.5,-0.7)"
                         " .. (T%d);" % (u + 1, v + 1))
        elif u >= k:
            lines.append("\\draw (B%d) .. controls +(0.5,0.7) and +(-0.5,0.7)"
                         " .. (B%d);" % (u - k + 1, v - k + 1))
        else:
            lines.append("\\draw (T%d) .. controls +(0,-1) and +(0,1) .. (B%d);"
                         % (u + 1, v - k + 1))
    lines.append("\\end{tikzpicture}")
    if standalone:
        lines.append("\\end{document}")
    return "\n".join(lines)


def tikz_element(x):
    if not x.terms:
        return "% zero element"
    parts = []
    for d in sorted(x.terms):
        parts.append("%% coefficient: %s (basis: %s)"
                     % (x.terms[d], x.basis))
        parts.append(tikz_diagram(d, standalone=False))
    return ("\\documentclass[tikz]{standalone}\n\\begin{document}\n"
            + "\n".join(parts) + "\n\\end{document}")

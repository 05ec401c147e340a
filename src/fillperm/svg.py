"""Deterministic SVG rendering of a glued polygon decomposition.

Faces are laid out left to right in canonical cycle order, one regular
polygon each.  Every side is a directed, labeled edge (first curve dark
red, second curve blue) with an arrowhead placed at 58% of its length;
punctured faces carry a center dot.  Bigons bow their two sides outward
so both stay visible.  The markup is written directly as text, with
fixed attribute order and two-decimal coordinates, so the same surface
always gives the same bytes.  Each call works out one shape per side
count, relative to the face centre, and shifts it along x for every
face with that many sides.
"""

from __future__ import annotations

import math

from .arcs import label_texts
from .verify import GluedSurface

__all__ = ["render_svg"]

_RADIUS = 90.0
_GAP = 70.0
_MARGIN = 60.0
_LABEL_OFFSET = 18.0
_ALPHA_COLOR = "#8b0000"
_BETA_COLOR = "#00008b"
_T = 0.58  # the arrowhead sits at this parameter of each side's quadratic Bezier curve
_S = 1.0 - _T
# Weights of the point s*s*a + 2*s*t*q + t*t*b and the tangent 2*s*(q-a) + 2*t*(b-q) at t = _T.
# Each is the leftmost product those expressions evaluate first, so the results are the same to the bit.
_SS, _ST2, _TT, _S2, _T2 = _S * _S, 2 * _S * _T, _T * _T, 2 * _S, 2 * _T


def _unit(vx: float, vy: float) -> tuple[float, float]:
    norm = math.hypot(vx, vy)
    return (vx / norm, vy / norm)


def _shape(sides: int) -> list[tuple]:
    """Each side of a ``sides``-gon centred at x = 0: its seven x offsets, then its seven y coordinates formatted."""
    cy = _MARGIN + _RADIUS
    angles = [-math.pi / 2 + 2 * math.pi * v / sides for v in range(sides)]
    points = [(_RADIUS * math.cos(t), cy + _RADIUS * math.sin(t)) for t in angles]
    out = []
    for v in range(sides):
        (ax, ay), (bx, by) = points[v], points[(v + 1) % sides]
        qx, qy = (ax + bx) / 2, (ay + by) / 2  # the control point, at the midpoint unless bowed
        if sides == 2:
            # Both sides join the same endpoints; bow them apart.
            ux, uy = _unit(bx - ax, by - ay)
            sign = 1.0 if v == 0 else -1.0
            qx, qy = qx + sign * 0.6 * _RADIUS * -uy, qy + sign * 0.6 * _RADIUS * ux
        px, py = _SS * ax + _ST2 * qx + _TT * bx, _SS * ay + _ST2 * qy + _TT * by
        tx, ty = _unit(_S2 * (qx - ax) + _T2 * (bx - qx), _S2 * (qy - ay) + _T2 * (by - qy))
        nx, ny = -ty, tx
        x0, x1, x2 = px + 7 * tx, px - 4 * tx + 4.5 * nx, px - 4 * tx - 4.5 * nx
        y0, y1, y2 = py + 7 * ty, py - 4 * ty + 4.5 * ny, py - 4 * ty - 4.5 * ny
        ox, oy = _unit(qx, qy - cy) if (qx, qy) != (0.0, cy) else (0.0, -1.0)
        lx, ly = qx + _LABEL_OFFSET * ox, qy + _LABEL_OFFSET * oy
        out.append((
            ax, qx, bx, x0, x1, x2, lx,
            f"{ay:.2f}", f"{qy:.2f}", f"{by:.2f}", f"{y0:.2f}", f"{y1:.2f}", f"{y2:.2f}", f"{ly:.2f}",
        ))
    return out


def render_svg(surface: GluedSurface) -> str:
    count = surface.face_count
    width = 2 * _MARGIN + count * 2 * _RADIUS + (count - 1) * _GAP
    height = 2 * (_MARGIN + _RADIUS)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    cy = _MARGIN + _RADIUS
    texts = label_texts(surface.n)
    shapes: dict[int, list] = {}  # side count -> _shape, for this call only
    for k, cycle in enumerate(surface.face_cycles):
        cx = _MARGIN + _RADIUS + k * (2 * _RADIUS + _GAP)
        shape = shapes.get(len(cycle)) or shapes.setdefault(len(cycle), _shape(len(cycle)))
        for j, (ax, qx, bx, x0, x1, x2, lx, ay, qy, by, y0, y1, y2, ly) in zip(cycle, shape):
            color = _ALPHA_COLOR if j & 1 else _BETA_COLOR  # odd symbols are arcs of the first curve
            # Labels match [ab]\d+'? (arcs.label_texts), so they need no XML escaping.
            out.append(
                f'<path d="M {cx + ax:.2f},{ay} Q {cx + qx:.2f},{qy} {cx + bx:.2f},{by}" '
                f'fill="none" stroke="{color}" stroke-width="1.5" />'
                f'<polygon points="{cx + x0:.2f},{y0} {cx + x1:.2f},{y1} {cx + x2:.2f},{y2}" fill="{color}" />'
                f'<text x="{cx + lx:.2f}" y="{ly}" font-size="12" font-family="monospace" text-anchor="middle" '
                f'dominant-baseline="middle" fill="#000000">{texts[j]}</text>'
            )
        if surface.puncture_assignment[k]:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#000000" />')
    out.append("</svg>")
    return "".join(out)

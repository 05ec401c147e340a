"""Deterministic SVG rendering of a glued polygon decomposition.

Faces are laid out left to right in canonical cycle order, one regular
polygon each.  Every side is a directed, labeled edge (first curve dark
red, second curve blue) with an arrowhead placed at 58% of its length;
punctured faces carry a center dot.  Bigons bow their two sides outward
so both stay visible.  The markup is written directly as text, with
fixed attribute order and two-decimal coordinates, so the same surface
always gives the same bytes.
"""

from __future__ import annotations

import math

from .arcs import ALPHA
from .verify import GluedSurface

__all__ = ["render_svg"]

_RADIUS = 90.0
_GAP = 70.0
_MARGIN = 60.0
_LABEL_OFFSET = 18.0
_ALPHA_COLOR = "#8b0000"
_BETA_COLOR = "#00008b"


def _bezier_point(a, c, b, t):
    s = 1.0 - t
    return (
        s * s * a[0] + 2 * s * t * c[0] + t * t * b[0],
        s * s * a[1] + 2 * s * t * c[1] + t * t * b[1],
    )


def _bezier_tangent(a, c, b, t):
    s = 1.0 - t
    return (
        2 * s * (c[0] - a[0]) + 2 * t * (b[0] - c[0]),
        2 * s * (c[1] - a[1]) + 2 * t * (b[1] - c[1]),
    )


def _unit(vx: float, vy: float) -> tuple[float, float]:
    norm = math.hypot(vx, vy)
    return (vx / norm, vy / norm)


def render_svg(surface: GluedSurface) -> str:
    count = surface.face_count
    width = 2 * _MARGIN + count * 2 * _RADIUS + (count - 1) * _GAP
    height = 2 * (_MARGIN + _RADIUS)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    cy = _MARGIN + _RADIUS
    for k, word in enumerate(surface.faces):
        cx = _MARGIN + _RADIUS + k * (2 * _RADIUS + _GAP)
        sides = len(word)
        points = [
            (
                cx + _RADIUS * math.cos(-math.pi / 2 + 2 * math.pi * v / sides),
                cy + _RADIUS * math.sin(-math.pi / 2 + 2 * math.pi * v / sides),
            )
            for v in range(sides)
        ]
        for v, label in enumerate(word):
            a = points[v]
            b = points[(v + 1) % sides]
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            if sides == 2:
                # Both sides join the same endpoints; bow them apart.
                ux, uy = _unit(b[0] - a[0], b[1] - a[1])
                sign = 1.0 if v == 0 else -1.0
                control = (mid[0] + sign * 0.6 * _RADIUS * -uy, mid[1] + sign * 0.6 * _RADIUS * ux)
            else:
                control = mid
            color = _ALPHA_COLOR if label.curve == ALPHA else _BETA_COLOR
            out.append(
                f'<path d="M {a[0]:.2f},{a[1]:.2f} Q {control[0]:.2f},{control[1]:.2f} {b[0]:.2f},{b[1]:.2f}" '
                f'fill="none" stroke="{color}" stroke-width="1.5" />'
            )
            tip_at = _bezier_point(a, control, b, 0.58)
            tx, ty = _unit(*_bezier_tangent(a, control, b, 0.58))
            nx, ny = -ty, tx
            (x0, y0), (x1, y1), (x2, y2) = (
                (tip_at[0] + 7 * tx, tip_at[1] + 7 * ty),
                (tip_at[0] - 4 * tx + 4.5 * nx, tip_at[1] - 4 * ty + 4.5 * ny),
                (tip_at[0] - 4 * tx - 4.5 * nx, tip_at[1] - 4 * ty - 4.5 * ny),
            )
            out.append(f'<polygon points="{x0:.2f},{y0:.2f} {x1:.2f},{y1:.2f} {x2:.2f},{y2:.2f}" fill="{color}" />')
            ox, oy = _unit(control[0] - cx, control[1] - cy) if control != (cx, cy) else (0.0, -1.0)
            # Labels match [ab]\d+'? (ArcLabel.__str__), so they need no XML escaping.
            out.append(
                f'<text x="{control[0] + _LABEL_OFFSET * ox:.2f}" y="{control[1] + _LABEL_OFFSET * oy:.2f}" '
                f'font-size="12" font-family="monospace" text-anchor="middle" dominant-baseline="middle" '
                f'fill="#000000">{label}</text>'
            )
        if surface.puncture_assignment[k]:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#000000" />')
    out.append("</svg>")
    return "".join(out)

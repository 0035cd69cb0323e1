"""Standalone SVG rendering of a topological-charge sweep.

No plotting runtime: the figure is assembled as SVG text directly, so the
artifact is self-contained and byte-stable for a given sweep.  Curves shown:
the pure dipole group, the vortex-fed (via TC) group, the envelope-fed
(via GT) route into the reference D label, and the coherent total into that
label.  A sweep with no positive value (a zero field, say) gets a frame
that says so.
"""

from __future__ import annotations

import math
from typing import Sequence

from .coupling import SweepRow

_W, _H = 760, 500
_TITLE = "Rabi frequency vs topological charge"
_ML, _MR, _MT, _MB = 90, 30, 46, 58
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#555555")


def _series_from_rows(rows: Sequence[SweepRow]):
    """(name, {l: value}) for the four reference curves."""
    pure, via_tc, via_gt, totals = {}, {}, {}, {}
    for r in rows:
        if r.kind == "group" and r.group == "pure" and r.final_state.startswith("P"):
            pure[r.l] = max(pure.get(r.l, 0.0), r.rabi_kHz)
        elif r.kind == "group" and r.group == "via_tc":
            via_tc[r.l] = r.rabi_kHz
        elif r.kind == "group" and r.group == "via_gt":
            via_gt.setdefault(r.final_state, {})[r.l] = r.rabi_kHz
        elif r.kind == "total":
            totals.setdefault(r.final_state, {})[r.l] = r.rabi_kHz

    def pick(cands):
        # prefer D-letter labels, then coverage, then size; deterministic
        def key(item):
            label, ser = item
            return (label.startswith("D"), len(ser), max(ser.values()), label)
        return max(cands.items(), key=key) if cands else (None, {})

    gt_label, gt_ser = pick(via_gt)
    tot_ser = totals.get(gt_label, {})
    out = [("pure (S to P)", pure), ("via TC", via_tc)]
    if gt_ser:
        out.append((f"via GT to {gt_label}", gt_ser))
    if tot_ser:
        out.append((f"total to {gt_label}", tot_ser))
    return out


def render_sweep_svg(rows: Sequence[SweepRow]) -> str:
    series = [(name, ser) for name, ser in _series_from_rows(rows) if ser]
    pts = [(l, v) for _, ser in series for l, v in ser.items() if v > 0.0]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="26" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15" fill="#222">{_TITLE}</text>']
    if not pts:
        out.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H / 2:.1f}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="13" fill="#444">no positive Rabi frequency '
                   f'to plot</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"
    ls = sorted({l for l, _ in pts})
    lo = math.floor(math.log10(min(v for _, v in pts)))
    hi = math.ceil(math.log10(max(v for _, v in pts)))
    hi = max(hi, lo + 1)
    dec_step = max(1, (hi - lo + 8) // 9)

    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    span_l = max(ls) - min(ls) or 1

    def X(l):
        return x0 + (x1 - x0) * (l - min(ls)) / span_l

    def Y(v):
        return y0 + (y1 - y0) * (math.log10(v) - lo) / (hi - lo)

    # frame
    out.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
               f'fill="none" stroke="#222" stroke-width="1"/>')
    # y decades
    for d in range(lo, hi + 1, dec_step):
        yy = Y(10.0 ** d)
        out.append(f'<line x1="{x0}" y1="{yy:.2f}" x2="{x1}" y2="{yy:.2f}" '
                   f'stroke="#ddd" stroke-width="0.7"/>')
        out.append(f'<text x="{x0 - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12" fill="#444">'
                   f'1e{d}</text>')
    out.append(f'<text x="20" y="{(y0 + y1) / 2:.1f}" font-family="sans-serif" '
               f'font-size="13" fill="#222" transform="rotate(-90 20 '
               f'{(y0 + y1) / 2:.1f})" text-anchor="middle">Rabi frequency '
               f'(kHz)</text>')
    # x ticks at swept l values
    for l in ls:
        xx = X(l)
        out.append(f'<line x1="{xx:.2f}" y1="{y0}" x2="{xx:.2f}" y2="{y0 + 5}" '
                   f'stroke="#222" stroke-width="1"/>')
        out.append(f'<text x="{xx:.2f}" y="{y0 + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" fill="#444">{l}'
                   f'</text>')
    out.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 16}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13" '
               f'fill="#222">topological charge l</text>')
    # curves
    for i, (name, ser) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if name.startswith("total") else ""
        coords = [(X(l), Y(v)) for l, v in sorted(ser.items()) if v > 0.0]
        if len(coords) > 1:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            out.append(f'<polyline points="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="1.8"{dash}/>')
        for x, y in coords:
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.2" '
                       f'fill="{color}"/>')
    # legend
    lx, ly = x0 + 14, y1 + 12
    out.append(f'<rect x="{lx - 8}" y="{ly - 10}" width="240" '
               f'height="{18 * len(series) + 8}" fill="white" stroke="#999" '
               f'stroke-width="0.7" opacity="0.92"/>')
    for i, (name, _) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        yy = ly + 18 * i
        dash = ' stroke-dasharray="6 4"' if name.startswith("total") else ""
        out.append(f'<line x1="{lx}" y1="{yy}" x2="{lx + 26}" y2="{yy}" '
                   f'stroke="{color}" stroke-width="1.8"{dash}/>')
        out.append(f'<text x="{lx + 32}" y="{yy + 4}" font-family="sans-serif" '
                   f'font-size="12" fill="#222">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

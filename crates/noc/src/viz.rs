//! Rendering of system topology and network state.
//!
//! Four renderers, all dependency-free:
//!
//! * [`topology_svg`] — a plan view of the chiplets above the interposer
//!   with every mesh and vertical link; node fill encodes buffered-flit
//!   occupancy (white → dark red), which makes a wedged dependency chain
//!   visible at a glance;
//! * [`occupancy_ascii`] — the same occupancy as per-region digit grids for
//!   terminal output;
//! * [`stall_svg`] — the plan view annotated with a
//!   [`crate::trace::StallReport`]: the circular-wait channels drawn as
//!   thick red arrows and the wedged packets' held VCs ringed;
//! * [`contention_svg`] — the plan view as a contention heatmap: node fill
//!   encodes per-router heat, link strokes per-directed-link heat (e.g.
//!   blocked VC-cycles from the [`crate::profile::SpanRecorder`]).

use crate::ids::{NodeId, Port};
use crate::topology::Topology;
use crate::trace::StallReport;
use std::collections::HashMap;
use std::fmt::Write as _;

const CELL: f64 = 46.0;
const NODE: f64 = 30.0;
const CHIPLET_GAP: f64 = 40.0;
const BAND_GAP: f64 = 90.0;
const MARGIN: f64 = 24.0;

/// Per-node (x, y) centre positions for the plan view.
fn layout(topo: &Topology) -> HashMap<NodeId, (f64, f64)> {
    let mut pos = HashMap::new();
    // Chiplets in a row along the top band.
    let mut x_off = MARGIN;
    let mut band_h: f64 = 0.0;
    for c in topo.chiplets() {
        for &r in &c.routers {
            let n = topo.node(r);
            pos.insert(
                r,
                (
                    x_off + n.x as f64 * CELL + NODE / 2.0,
                    MARGIN + (c.height - 1 - n.y) as f64 * CELL + NODE / 2.0,
                ),
            );
        }
        x_off += c.width as f64 * CELL + CHIPLET_GAP;
        band_h = band_h.max(c.height as f64 * CELL);
    }
    // Interposer centred below.
    let (iw, _) = topo.interposer_dims();
    let total_w = x_off - CHIPLET_GAP - MARGIN;
    let ix_off = MARGIN + (total_w - iw as f64 * CELL).max(0.0) / 2.0;
    let iy_off = MARGIN + band_h + BAND_GAP;
    for &r in topo.interposer_routers() {
        let n = topo.node(r);
        let (_, ih) = topo.interposer_dims();
        pos.insert(
            r,
            (
                ix_off + n.x as f64 * CELL + NODE / 2.0,
                iy_off + (ih - 1 - n.y) as f64 * CELL + NODE / 2.0,
            ),
        );
    }
    pos
}

fn heat_color(flits: usize, max: usize) -> String {
    if max == 0 || flits == 0 {
        return "#ffffff".into();
    }
    let t = (flits as f64 / max as f64).clamp(0.0, 1.0);
    let r = 255;
    let gb = (235.0 * (1.0 - t)) as u8;
    format!("#{r:02x}{gb:02x}{gb:02x}")
}

/// Opens a plan-view document: the `<svg>` element sized to fit `pos`,
/// and a light background.
fn svg_prologue(pos: &HashMap<NodeId, (f64, f64)>) -> String {
    let width = pos.values().map(|&(x, _)| x).fold(0.0, f64::max) + NODE + MARGIN;
    let height = pos.values().map(|&(_, y)| y).fold(0.0, f64::max) + NODE + MARGIN;
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}" viewBox="0 0 {width:.0} {height:.0}">"#
    );
    let _ = writeln!(
        svg,
        r##"<rect width="100%" height="100%" fill="#fafafa"/>"##
    );
    svg
}

/// Draws every router as a labelled square filled with `fill(node)`:
/// boundary routers outlined blue, interposer routers less rounded than
/// chiplet ones.
fn draw_nodes(
    svg: &mut String,
    topo: &Topology,
    pos: &HashMap<NodeId, (f64, f64)>,
    fill: impl Fn(NodeId) -> String,
) {
    for n in topo.nodes() {
        let (x, y) = pos[&n.id];
        let fill = fill(n.id);
        let stroke = if n.boundary { "#4060c0" } else { "#404040" };
        let shape = if topo.is_interposer(n.id) { 4.0 } else { 8.0 };
        let _ = writeln!(
            svg,
            r#"<rect x="{:.0}" y="{:.0}" width="{NODE:.0}" height="{NODE:.0}" rx="{shape}" fill="{fill}" stroke="{stroke}" stroke-width="2"/>"#,
            x - NODE / 2.0,
            y - NODE / 2.0,
        );
        let _ = writeln!(
            svg,
            r#"<text x="{x:.0}" y="{:.0}" font-size="9" text-anchor="middle" font-family="monospace">{}</text>"#,
            y + 3.0,
            n.id.0
        );
    }
}

/// Renders the system as an SVG plan view. `occupancy` (from
/// [`crate::network::Network::occupancy`]) colours nodes by buffered flits;
/// pass an empty slice for a plain topology diagram.
pub fn topology_svg(topo: &Topology, occupancy: &[(NodeId, usize)]) -> String {
    let pos = layout(topo);
    let occ: HashMap<NodeId, usize> = occupancy.iter().copied().collect();
    let max_occ = occ.values().copied().max().unwrap_or(0);
    let mut svg = svg_prologue(&pos);

    // Links first (under the nodes).
    for n in topo.nodes() {
        for (p, peer) in n.links() {
            if peer < n.id {
                continue; // draw each bidirectional link once
            }
            let (x1, y1) = pos[&n.id];
            let (x2, y2) = pos[&peer];
            let faulty = topo.is_link_faulty(n.id, p);
            let (stroke, dash) = if faulty {
                ("#d02020", r#" stroke-dasharray="2,4""#)
            } else if p.is_vertical() {
                ("#4060c0", r#" stroke-dasharray="6,4""#)
            } else {
                ("#b0b0b0", "")
            };
            let _ = writeln!(
                svg,
                r#"<line x1="{x1:.0}" y1="{y1:.0}" x2="{x2:.0}" y2="{y2:.0}" stroke="{stroke}" stroke-width="2"{dash}/>"#
            );
        }
    }
    draw_nodes(&mut svg, topo, &pos, |n| {
        heat_color(occ.get(&n).copied().unwrap_or(0), max_occ)
    });
    svg.push_str("</svg>\n");
    svg
}

/// Renders the plan view annotated with deadlock forensics: base occupancy
/// heat from the report, thick red arrows over every channel of the
/// detected circular wait, and orange rings around routers where wedged
/// packets hold flits.
pub fn stall_svg(topo: &Topology, report: &StallReport) -> String {
    let base = topology_svg(topo, &report.occupancy);
    let pos = layout(topo);
    let mut overlay = String::new();
    // Held VCs: ring the routers.
    let mut ringed: Vec<NodeId> = report
        .wedged
        .iter()
        .flat_map(|w| w.holds.iter())
        .filter(|h| h.buffered > 0)
        .map(|h| h.node)
        .collect();
    ringed.sort();
    ringed.dedup();
    for n in ringed {
        let (x, y) = pos[&n];
        let _ = writeln!(
            overlay,
            r##"<circle cx="{x:.0}" cy="{y:.0}" r="{:.0}" fill="none" stroke="#e08020" stroke-width="3"/>"##,
            NODE * 0.75
        );
    }
    // The circular wait: red arrows along each channel.
    for ch in &report.wait_cycle {
        let Some(peer) = topo.raw_neighbor(ch.from, ch.out) else {
            continue;
        };
        let (x1, y1) = pos[&ch.from];
        let (x2, y2) = pos[&peer];
        // Shorten toward the head so the arrow tip is visible at the node
        // edge.
        let (dx, dy) = (x2 - x1, y2 - y1);
        let len = (dx * dx + dy * dy).sqrt().max(1.0);
        let (ux, uy) = (dx / len, dy / len);
        let (hx, hy) = (x2 - ux * NODE * 0.7, y2 - uy * NODE * 0.7);
        let _ = writeln!(
            overlay,
            r##"<line x1="{x1:.0}" y1="{y1:.0}" x2="{hx:.0}" y2="{hy:.0}" stroke="#d02020" stroke-width="4" opacity="0.8"/>"##
        );
        let _ = writeln!(
            overlay,
            r##"<polygon points="{:.0},{:.0} {:.0},{:.0} {:.0},{:.0}" fill="#d02020"/>"##,
            hx + ux * 8.0,
            hy + uy * 8.0,
            hx - uy * 5.0,
            hy + ux * 5.0,
            hx + uy * 5.0,
            hy - ux * 5.0,
        );
    }
    let _ = writeln!(
        overlay,
        r#"<text x="{MARGIN:.0}" y="14" font-size="12" font-family="monospace">stall @ cycle {}: {} wedged, {}</text>"#,
        report.cycle,
        report.wedged.len(),
        if report.is_deadlock() {
            "circular wait in red"
        } else {
            "no channel cycle"
        }
    );
    base.replace("</svg>\n", &format!("{overlay}</svg>\n"))
}

/// Renders a contention heatmap over the plan view. `node_heat` colours
/// routers white → red relative to the hottest router; `link_heat` draws
/// one overlay stroke per hot directed link `(from, out_port, heat)`,
/// offset a few pixels perpendicular to the link so both directions of a
/// physical link stay distinguishable, with stroke width and colour scaling
/// with heat. Heat units are the caller's (the profiling pipeline feeds
/// blocked VC-cycles); only relative magnitude matters. The `title` is
/// rendered verbatim after XML escaping.
pub fn contention_svg(
    topo: &Topology,
    node_heat: &[(NodeId, u64)],
    link_heat: &[(NodeId, Port, u64)],
    title: &str,
) -> String {
    let pos = layout(topo);
    let nh: HashMap<NodeId, u64> = node_heat.iter().copied().collect();
    let max_node = nh.values().copied().max().unwrap_or(0);
    let max_link = link_heat.iter().map(|&(_, _, v)| v).max().unwrap_or(0);
    let mut svg = svg_prologue(&pos);

    // Plain links underneath, as in the topology view.
    for n in topo.nodes() {
        for (p, peer) in n.links() {
            if peer < n.id {
                continue;
            }
            let (x1, y1) = pos[&n.id];
            let (x2, y2) = pos[&peer];
            let dash = if p.is_vertical() {
                r#" stroke-dasharray="6,4""#
            } else {
                ""
            };
            let _ = writeln!(
                svg,
                r##"<line x1="{x1:.0}" y1="{y1:.0}" x2="{x2:.0}" y2="{y2:.0}" stroke="#d8d8d8" stroke-width="2"{dash}/>"##
            );
        }
    }
    // Hot directed links on top.
    for &(n, p, v) in link_heat {
        if v == 0 {
            continue;
        }
        let Some(peer) = topo.raw_neighbor(n, p) else {
            continue;
        };
        let (x1, y1) = pos[&n];
        let (x2, y2) = pos[&peer];
        let (dx, dy) = (x2 - x1, y2 - y1);
        let len = (dx * dx + dy * dy).sqrt().max(1.0);
        // Perpendicular offset keeps the two directions side by side.
        let (ox, oy) = (-dy / len * 3.0, dx / len * 3.0);
        let t = v as f64 / max_link as f64;
        let stroke = heat_color((t * 1000.0) as usize, 1000);
        let _ = writeln!(
            svg,
            r#"<line x1="{:.0}" y1="{:.0}" x2="{:.0}" y2="{:.0}" stroke="{stroke}" stroke-width="{:.1}" opacity="0.9"/>"#,
            x1 + ox,
            y1 + oy,
            x2 + ox,
            y2 + oy,
            2.0 + 3.0 * t,
        );
    }
    // Nodes coloured by heat.
    draw_nodes(&mut svg, topo, &pos, |n| {
        let heat = nh.get(&n).copied().unwrap_or(0);
        heat_color(
            ((heat as f64 / max_node.max(1) as f64) * 1000.0) as usize,
            1000,
        )
    });
    let escaped = title
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;");
    let _ = writeln!(
        svg,
        r#"<text x="{MARGIN:.0}" y="14" font-size="12" font-family="monospace">{escaped}</text>"#
    );
    svg.push_str("</svg>\n");
    svg
}

/// Renders occupancy as per-region digit grids (`.` for empty, `1`-`9`,
/// then `#` for ten or more buffered flits).
pub fn occupancy_ascii(topo: &Topology, occupancy: &[(NodeId, usize)]) -> String {
    let occ: HashMap<NodeId, usize> = occupancy.iter().copied().collect();
    let glyph = |n: NodeId| -> char {
        match occ.get(&n).copied().unwrap_or(0) {
            0 => '.',
            f @ 1..=9 => char::from_digit(f as u32, 10).expect("single digit"),
            _ => '#',
        }
    };
    let mut out = String::new();
    for c in topo.chiplets() {
        let _ = writeln!(out, "chiplet {}:", c.id);
        for y in (0..c.height).rev() {
            out.push_str("  ");
            for x in 0..c.width {
                let n = c.routers[(y * c.width + x) as usize];
                out.push(glyph(n));
                out.push(if topo.node(n).boundary { '*' } else { ' ' });
            }
            out.push('\n');
        }
    }
    let (iw, ih) = topo.interposer_dims();
    let _ = writeln!(out, "interposer:");
    for y in (0..ih).rev() {
        out.push_str("  ");
        for x in 0..iw {
            let n = topo.interposer_routers()[(y * iw + x) as usize];
            out.push(glyph(n));
            out.push(if topo.raw_neighbor(n, Port::Up).is_some() {
                '^'
            } else {
                ' '
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ChipletSystemSpec;

    fn topo() -> Topology {
        ChipletSystemSpec::baseline().build(0).unwrap()
    }

    #[test]
    fn svg_contains_every_node_and_link_class() {
        let t = topo();
        let svg = topology_svg(&t, &[]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<rect x=").count(), t.num_nodes());
        // 16 vertical links drawn dashed blue.
        assert_eq!(
            svg.matches(r##"stroke="#4060c0" stroke-width="2" stroke-dasharray"##)
                .count(),
            16
        );
    }

    #[test]
    fn svg_heat_scales_with_occupancy() {
        let t = topo();
        let hot = t.chiplets()[0].routers[0];
        let svg = topology_svg(&t, &[(hot, 10)]);
        assert!(
            svg.contains(r##"fill="#ff0000""##),
            "hottest node is pure red"
        );
        assert!(svg.contains(r##"fill="#ffffff""##), "cold nodes stay white");
    }

    #[test]
    fn faulty_links_are_marked() {
        let mut t = topo();
        let b = t.chiplets()[0].routers[0];
        t.set_link_faulty(b, Port::East);
        let svg = topology_svg(&t, &[]);
        assert!(svg.contains(r##"stroke="#d02020""##));
    }

    #[test]
    fn contention_svg_colours_hot_nodes_and_links() {
        let t = topo();
        let hot = t.chiplets()[0].routers[0];
        let svg = contention_svg(
            &t,
            &[(hot, 500)],
            &[(hot, Port::East, 120), (hot, Port::North, 0)],
            "blocked cycles <test> & co",
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<rect x=").count(), t.num_nodes());
        assert!(
            svg.contains(r##"fill="#ff0000""##),
            "hottest node is pure red"
        );
        // Exactly one hot-link overlay (zero-heat links are skipped).
        assert_eq!(svg.matches(r#"opacity="0.9""#).count(), 1);
        assert!(svg.contains("blocked cycles &lt;test&gt; &amp; co"));
    }

    #[test]
    fn ascii_grids_have_region_shapes() {
        let t = topo();
        let hot = t.interposer_routers()[0];
        let text = occupancy_ascii(&t, &[(hot, 12)]);
        assert!(text.contains("chiplet c0:"));
        assert!(text.contains("interposer:"));
        assert!(text.contains('#'), "saturated node renders as #");
        assert!(text.contains('*'), "boundary routers are starred");
        assert!(
            text.contains('^'),
            "interposer routers with Up links are marked"
        );
        // 4 chiplet rows x 4 + 4 interposer rows.
        assert_eq!(
            text.lines().filter(|l| l.starts_with("  ")).count(),
            4 * 4 + 4
        );
    }
}

use crate::EdgeId;

/// One edge of the geometric dual: it crosses a primal edge and connects
/// the two faces on its sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DualEdge {
    /// The primal edge this dual edge crosses.
    pub primal: EdgeId,
    /// Face on the `u -> v` side.
    pub a: u32,
    /// Face on the `v -> u` side.
    pub b: u32,
    /// Weight inherited from the primal edge.
    pub weight: i64,
}

/// The geometric dual of a plane drawing, specialized for the
/// bipartization-as-T-join reduction.
///
/// Nodes are the faces of the primal drawing. Bridges of the primal graph
/// would become dual self-loops; since a bridge lies on no cycle it can
/// never be part of a minimum odd-cycle cover, so bridges are segregated
/// into [`DualGraph::bridges`] and excluded from the dual edge set.
///
/// The T-set of the bipartization T-join is exactly the odd faces
/// ([`DualGraph::t_set`]); for a plane multigraph the dual degree of a face
/// equals its boundary-walk length, so "odd-degree dual nodes" (the paper's
/// phrasing) and "odd faces" coincide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DualGraph {
    /// Number of dual nodes (faces).
    pub face_count: usize,
    /// Dual edges (bridges excluded).
    pub edges: Vec<DualEdge>,
    /// Primal bridge edges (same face on both sides).
    pub bridges: Vec<EdgeId>,
    /// `true` for faces with odd boundary walk.
    pub odd_face: Vec<bool>,
}

impl DualGraph {
    /// The faces forming the T-set of the bipartization T-join.
    pub fn t_set(&self) -> Vec<u32> {
        (0..self.face_count as u32)
            .filter(|&f| self.odd_face[f as usize])
            .collect()
    }

    /// Degree of each dual node, counting only non-bridge dual edges.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.face_count];
        for e in &self.edges {
            deg[e.a as usize] += 1;
            deg[e.b as usize] += 1;
        }
        deg
    }
}

#[cfg(test)]
mod tests {
    use crate::{build_dual, trace_faces, EmbeddedGraph};
    use aapsm_geom::Point;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn triangle_dual_is_three_parallel_edges() {
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 3);
        g.add_edge(b, c, 5);
        g.add_edge(c, a, 7);
        let f = trace_faces(&g, 1);
        let d = build_dual(&g, &f, 1);
        assert_eq!(d.face_count, 2);
        assert_eq!(d.edges.len(), 3);
        assert!(d.bridges.is_empty());
        assert_eq!(d.t_set().len(), 2);
        // All three dual edges connect the same two faces.
        for e in &d.edges {
            assert_ne!(e.a, e.b);
        }
        assert_eq!(d.degrees(), vec![3, 3]);
    }

    #[test]
    fn bridges_are_segregated() {
        // A triangle with a pendant edge.
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        let d = g.add_node(p(200, 0));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        let pendant = g.add_edge(b, d, 1);
        let f = trace_faces(&g, 1);
        let dual = build_dual(&g, &f, 1);
        assert_eq!(dual.bridges, vec![pendant]);
        assert_eq!(dual.edges.len(), 3);
        // Outer face walk: a-b, b-d, d-b, b-c... length 5 -> odd; inner
        // triangle odd; so both faces are in T.
        assert_eq!(dual.t_set().len(), 2);
    }

    #[test]
    fn bridge_heavy_barbell_segregates_every_bridge() {
        // Two odd triangles joined by a three-edge bridge path: the dual
        // must keep exactly the six cycle edges and segregate the path.
        let mut g = EmbeddedGraph::new();
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(-100, 60));
        let c = g.add_node(p(-100, -60));
        let m1 = g.add_node(p(150, 5));
        let m2 = g.add_node(p(300, -5));
        let d = g.add_node(p(450, 0));
        let e = g.add_node(p(550, 60));
        let f = g.add_node(p(550, -60));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        let p1 = g.add_edge(a, m1, 1);
        let p2 = g.add_edge(m1, m2, 1);
        let p3 = g.add_edge(m2, d, 1);
        g.add_edge(d, e, 1);
        g.add_edge(e, f, 1);
        g.add_edge(f, d, 1);
        let faces = trace_faces(&g, 1);
        faces.validate(&g).expect("plane drawing");
        let dual = build_dual(&g, &faces, 1);
        assert_eq!(dual.bridges, vec![p1, p2, p3]);
        assert_eq!(dual.edges.len(), 6);
        // One component: V=8, E=9, F=3 (two triangle interiors + outer).
        assert_eq!(dual.face_count, 3);
        // Both triangle interiors are odd; the outer walk (3+3 cycle
        // edges + 2*3 bridge visits = 12) is even — T has two faces.
        assert_eq!(dual.t_set().len(), 2);
    }

    #[test]
    fn multi_component_dual_keeps_components_disjoint() {
        let mut g = EmbeddedGraph::new();
        // Component 0: triangle (2 faces, both odd).
        let a = g.add_node(p(0, 0));
        let b = g.add_node(p(100, 0));
        let c = g.add_node(p(50, 80));
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(c, a, 1);
        // Component 1: square (2 faces, both even).
        let n: Vec<_> = [(5000, 0), (5100, 0), (5100, 100), (5000, 100)]
            .iter()
            .map(|&(x, y)| g.add_node(p(x, y)))
            .collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], 1);
        }
        // Component 2: lone bridge edge (1 face).
        let x = g.add_node(p(10_000, 0));
        let y = g.add_node(p(10_100, 0));
        let lone = g.add_edge(x, y, 1);
        let faces = trace_faces(&g, 1);
        let dual = build_dual(&g, &faces, 1);
        assert_eq!(dual.face_count, 5);
        assert_eq!(dual.edges.len(), 7);
        assert_eq!(dual.bridges, vec![lone]);
        assert_eq!(dual.t_set().len(), 2);
        // No dual edge may connect faces of different components: the two
        // odd (triangle) faces must be linked to each other, never to the
        // square's or the lone edge's faces.
        let t = dual.t_set();
        for de in &dual.edges {
            let a_odd = t.contains(&de.a);
            let b_odd = t.contains(&de.b);
            assert_eq!(a_odd, b_odd, "dual edge {de:?} spans components");
        }
    }

    #[test]
    fn dual_has_no_self_loops_even_on_bridge_rich_graphs() {
        // Bridges would be dual self-loops; `build_dual` must exclude
        // them so downstream T-join instances (which reject self-loops)
        // stay well-formed. Star + triangle + pendant chains.
        let mut g = EmbeddedGraph::new();
        let hub = g.add_node(p(0, 0));
        let mut prev = hub;
        for i in 1..6i64 {
            let nn = g.add_node(p(120 * i, 30 * (i % 3)));
            g.add_edge(prev, nn, 1);
            prev = nn;
        }
        let t1 = g.add_node(p(-100, 100));
        let t2 = g.add_node(p(-200, 20));
        g.add_edge(hub, t1, 1);
        g.add_edge(t1, t2, 1);
        g.add_edge(t2, hub, 1);
        let faces = trace_faces(&g, 1);
        faces.validate(&g).expect("plane drawing");
        let dual = build_dual(&g, &faces, 1);
        for de in &dual.edges {
            assert_ne!(de.a, de.b, "dual self-loop leaked for {de:?}");
        }
        assert_eq!(dual.edges.len() + dual.bridges.len(), g.alive_edge_count());
        assert_eq!(dual.bridges.len(), 5);
        // Killing the chain leaves the pure triangle: bridges vanish.
        for e in dual.bridges.clone() {
            g.kill_edge(e);
        }
        let faces = trace_faces(&g, 1);
        let dual = build_dual(&g, &faces, 1);
        assert!(dual.bridges.is_empty());
        assert_eq!(dual.edges.len(), 3);
    }

    #[test]
    fn dual_degree_equals_face_walk_length_minus_bridges() {
        let mut g = EmbeddedGraph::new();
        // Square with a diagonal chord.
        let n: Vec<_> = [(0, 0), (100, 0), (100, 100), (0, 100)]
            .iter()
            .map(|&(x, y)| g.add_node(p(x, y)))
            .collect();
        for i in 0..4 {
            g.add_edge(n[i], n[(i + 1) % 4], 1);
        }
        g.add_edge(n[0], n[2], 1); // chord
        let f = trace_faces(&g, 1);
        let d = build_dual(&g, &f, 1);
        assert_eq!(d.face_count, 3);
        assert_eq!(d.edges.len(), 5);
        let mut degs = d.degrees();
        degs.sort_unstable();
        assert_eq!(degs, vec![3, 3, 4]);
        // Two triangles from the chord are odd.
        assert_eq!(d.t_set().len(), 2);
    }
}

//! The compact binary cube snapshot format behind `--cube <path>`.
//!
//! A [`CubeSnapshot`] freezes a universe plus any number of named
//! unfairness cubes (and free-form string metadata) into one checksummed
//! file, so the `repro-*` binaries can load a previously built cube
//! instead of re-running the simulators.
//!
//! # File format
//!
//! ```text
//! file := magic "FBXS" (4) | version: u32 LE (4) | body | fnv1a(body): u64 LE (8)
//! ```
//!
//! The body serializes, in order: the schema (attribute names and value
//! domains), the groups (as predicate id pairs), the queries and
//! locations (names plus optional category/region), the named cubes
//! (dimensions plus one optional-f64 per cell in `raw_data` order), and
//! the metadata map. Everything uses the explicit little-endian
//! primitives of [`crate::codec`]; cell values travel as IEEE-754 bit
//! patterns, so a load is *bit*-identical to the cube that was saved.
//!
//! The universe is rebuilt through the same registration calls
//! (`Universe::new` → `add_group`/`add_query`/`add_location` in stored
//! order) that built the original, so every dense id comes back
//! unchanged — cubes indexed by those ids remain valid.
//!
//! Saves write to `<path>.tmp` and rename into place, so a crash mid-save
//! leaves either the old snapshot or none, never a torn one. Loads
//! verify magic, version, and checksum before touching the body and
//! report [`std::io::ErrorKind::InvalidData`] on any mismatch.

use crate::codec::{self, CodecError, Reader};
use fbox_core::cube::UnfairnessCube;
use fbox_core::model::{
    AttrId, Attribute, GroupId, GroupLabel, LocationId, QueryId, Schema, Universe, ValueId,
};
use fbox_resilience::hash::fnv1a;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FBXS";

/// Current format version. Loads reject any other version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A frozen universe plus named cubes and metadata.
#[derive(Debug, Clone)]
pub struct CubeSnapshot {
    universe: Universe,
    cubes: Vec<(String, UnfairnessCube)>,
    meta: BTreeMap<String, String>,
}

impl CubeSnapshot {
    /// An empty snapshot over a universe.
    #[must_use]
    pub fn new(universe: Universe) -> Self {
        Self { universe, cubes: Vec::new(), meta: BTreeMap::new() }
    }

    /// The frozen universe.
    #[must_use]
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Adds (or replaces) a named cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube's dimensions disagree with the universe.
    pub fn insert_cube(&mut self, name: impl Into<String>, cube: UnfairnessCube) {
        assert_eq!(
            (cube.n_groups(), cube.n_queries(), cube.n_locations()),
            (self.universe.n_groups(), self.universe.n_queries(), self.universe.n_locations()),
            "cube dimensions disagree with the snapshot universe"
        );
        let name = name.into();
        if let Some(slot) = self.cubes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = cube;
        } else {
            self.cubes.push((name, cube));
        }
    }

    /// Looks up a cube by name.
    #[must_use]
    pub fn cube(&self, name: &str) -> Option<&UnfairnessCube> {
        self.cubes.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// The named cubes in insertion order.
    #[must_use]
    pub fn cubes(&self) -> &[(String, UnfairnessCube)] {
        &self.cubes
    }

    /// Sets a metadata entry.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert(key.into(), value.into());
    }

    /// Looks up a metadata entry.
    #[must_use]
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(String::as_str)
    }

    /// All metadata entries, sorted by key.
    #[must_use]
    pub fn meta_entries(&self) -> &BTreeMap<String, String> {
        &self.meta
    }

    /// Serializes the snapshot to bytes (magic, version, body, checksum).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        encode_universe(&mut body, &self.universe);
        codec::put_len(&mut body, self.cubes.len());
        for (name, cube) in &self.cubes {
            codec::put_str(&mut body, name);
            encode_cube(&mut body, cube);
        }
        codec::put_len(&mut body, self.meta.len());
        for (k, v) in &self.meta {
            codec::put_str(&mut body, k);
            codec::put_str(&mut body, v);
        }

        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let checksum = fnv1a(&body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserializes a snapshot, verifying magic, version, and checksum
    /// before decoding the body. Never panics: a non-canonical body is an error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let n = bytes.len();
        if n < 16 {
            return Err(CodecError::UnexpectedEof { wanted: 16, have: n });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(CodecError::Invalid("snapshot magic mismatch"));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::Invalid("unsupported snapshot version"));
        }
        let body = &bytes[8..n - 8];
        let stored = u64::from_le_bytes(bytes[n - 8..].try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(CodecError::Invalid("snapshot checksum mismatch"));
        }

        let mut r = Reader::new(body);
        let universe = decode_universe(&mut r)?;
        let n_cubes = r.length()?;
        let mut cubes = Vec::with_capacity(n_cubes);
        for _ in 0..n_cubes {
            let name = r.str()?.to_string();
            let cube = decode_cube(&mut r, &universe)?;
            cubes.push((name, cube));
        }
        let n_meta = r.length()?;
        let mut meta = BTreeMap::new();
        for _ in 0..n_meta {
            let k = r.str()?.to_string();
            let v = r.str()?.to_string();
            if meta.last_key_value().is_some_and(|(prev, _)| *prev >= k) {
                return Err(CodecError::Invalid("metadata keys not in order"));
            }
            meta.insert(k, v);
        }
        r.finish()?;
        Ok(Self { universe, cubes, meta })
    }

    /// Saves the snapshot atomically: writes `<path>.tmp`, then renames
    /// into place.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let _span = fbox_telemetry::span("store.snapshot.save");
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads and verifies a snapshot from disk.
    pub fn load(path: &Path) -> io::Result<Self> {
        let _span = fbox_telemetry::span("store.snapshot.load");
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes).map_err(Into::into)
    }
}

fn encode_universe(buf: &mut Vec<u8>, u: &Universe) {
    let schema = u.schema();
    codec::put_len(buf, schema.len());
    for attr in schema.attributes() {
        codec::put_str(buf, attr.name());
        codec::put_len(buf, attr.cardinality());
        for v in attr.values() {
            codec::put_str(buf, v);
        }
    }
    codec::put_len(buf, u.n_groups());
    for g in u.group_ids() {
        let label = u.group(g);
        codec::put_len(buf, label.arity());
        for &(a, v) in label.predicates() {
            codec::put_u16(buf, a.0);
            codec::put_u16(buf, v.0);
        }
    }
    codec::put_len(buf, u.n_queries());
    for q in u.query_ids() {
        let def = u.query(q);
        codec::put_str(buf, &def.name);
        codec::put_opt_str(buf, def.category.as_deref());
    }
    codec::put_len(buf, u.n_locations());
    for l in u.location_ids() {
        let def = u.location(l);
        codec::put_str(buf, &def.name);
        codec::put_opt_str(buf, def.region.as_deref());
    }
}

fn decode_universe(r: &mut Reader<'_>) -> Result<Universe, CodecError> {
    let n_attrs = r.length()?;
    let mut attributes = Vec::with_capacity(n_attrs);
    for _ in 0..n_attrs {
        let name = r.str()?.to_string();
        let n_values = r.length()?;
        if n_values == 0 {
            return Err(CodecError::Invalid("attribute with empty value domain"));
        }
        let mut values = Vec::with_capacity(n_values);
        for _ in 0..n_values {
            values.push(r.str()?.to_string());
        }
        let repeats = |i| values[..i].contains(&values[i]);
        if (1..n_values).any(repeats) || attributes.iter().any(|(other, _)| *other == name) {
            return Err(CodecError::Invalid("duplicate attribute name or value in snapshot"));
        }
        attributes.push((name, values));
    }
    // The checks above leave the constructors' asserts nothing to catch:
    // a tampered body that passes the checksum is an error, not a panic.
    let schema = Schema::new(
        attributes.into_iter().map(|(name, values)| Attribute::new(name, values)).collect(),
    );
    let mut universe = Universe::new(schema);

    let n_groups = r.length()?;
    for i in 0..n_groups {
        let arity = r.length()?;
        let mut predicates = Vec::with_capacity(arity);
        for _ in 0..arity {
            let a = AttrId(r.u16()?);
            let v = ValueId(r.u16()?);
            let attr_ok = (a.0 as usize) < universe.schema().len();
            if !attr_ok || (v.0 as usize) >= universe.schema().attribute(a).cardinality() {
                return Err(CodecError::Invalid("group predicate outside the schema"));
            }
            if predicates.last().is_some_and(|&(prev, _)| prev >= a) {
                return Err(CodecError::Invalid("group predicates not in attribute order"));
            }
            predicates.push((a, v));
        }
        let id = universe.add_group(GroupLabel::new(predicates));
        if id != GroupId(i as u32) {
            return Err(CodecError::Invalid("duplicate group label in snapshot"));
        }
    }
    let n_queries = r.length()?;
    for i in 0..n_queries {
        let name = r.str()?.to_string();
        let category = r.opt_str()?.map(str::to_string);
        let id = universe.add_query(name, category.as_deref());
        if id != QueryId(i as u32) {
            return Err(CodecError::Invalid("duplicate query name in snapshot"));
        }
    }
    let n_locations = r.length()?;
    for i in 0..n_locations {
        let name = r.str()?.to_string();
        let region = r.opt_str()?.map(str::to_string);
        let id = universe.add_location(name, region.as_deref());
        if id != LocationId(i as u32) {
            return Err(CodecError::Invalid("duplicate location name in snapshot"));
        }
    }
    Ok(universe)
}

fn encode_cube(buf: &mut Vec<u8>, cube: &UnfairnessCube) {
    codec::put_len(buf, cube.n_groups());
    codec::put_len(buf, cube.n_queries());
    codec::put_len(buf, cube.n_locations());
    for cell in cube.raw_cells() {
        codec::put_opt_f64(buf, cell);
    }
}

fn decode_cube(r: &mut Reader<'_>, universe: &Universe) -> Result<UnfairnessCube, CodecError> {
    let ng = r.length()?;
    let nq = r.length()?;
    let nl = r.length()?;
    if (ng, nq, nl) != (universe.n_groups(), universe.n_queries(), universe.n_locations()) {
        return Err(CodecError::Invalid("cube dimensions disagree with snapshot universe"));
    }
    // Each cell takes at least its tag byte: bound the allocation by that.
    let cells = ng.checked_mul(nq).and_then(|n| n.checked_mul(nl)).unwrap_or(usize::MAX);
    if cells > r.remaining() {
        return Err(CodecError::UnexpectedEof { wanted: cells, have: r.remaining() });
    }
    let mut cube = UnfairnessCube::with_dims(ng, nq, nl);
    for g in 0..ng as u32 {
        for q in 0..nq as u32 {
            for l in 0..nl as u32 {
                let value = r.opt_f64()?;
                if value.is_some_and(|v| !(0.0..=1.0).contains(&v)) {
                    return Err(CodecError::Invalid("cube value outside [0, 1]"));
                }
                cube.set_opt(GroupId(g), QueryId(q), LocationId(l), value);
            }
        }
    }
    Ok(cube)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        let mut u = Universe::with_all_groups(Schema::gender_ethnicity());
        u.add_query("Organize Closet", Some("General Cleaning"));
        u.add_query("Lawn Mowing", Some("Yard Work"));
        u.add_location("San Francisco, CA", Some("West Coast"));
        u.add_location("London", None);
        u
    }

    fn snapshot() -> CubeSnapshot {
        let u = universe();
        let mut cube = UnfairnessCube::empty(&u);
        cube.set(GroupId(0), QueryId(0), LocationId(0), 0.25);
        cube.set(GroupId(3), QueryId(1), LocationId(1), -0.0);
        let mut snap = CubeSnapshot::new(u);
        snap.insert_cube("market:exposure", cube);
        snap.set_meta("platform", "taskrabbit");
        snap
    }

    #[test]
    fn bytes_round_trip_bit_exactly() {
        let snap = snapshot();
        let decoded = CubeSnapshot::from_bytes(&snap.to_bytes()).unwrap();

        let u = decoded.universe();
        assert_eq!(u.n_groups(), 11);
        assert_eq!(u.query(QueryId(0)).category.as_deref(), Some("General Cleaning"));
        assert_eq!(u.location(LocationId(1)).region, None);
        assert_eq!(u.group(GroupId(3)), snapshot().universe().group(GroupId(3)));
        assert_eq!(decoded.meta("platform"), Some("taskrabbit"));

        let orig = snap.cube("market:exposure").unwrap();
        let back = decoded.cube("market:exposure").unwrap();
        let bits = |c: &UnfairnessCube| {
            c.raw_data().iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>()
        };
        assert_eq!(bits(orig), bits(back));
        // -0.0 survives with its sign bit.
        assert_eq!(
            back.get(GroupId(3), QueryId(1), LocationId(1)).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    /// The encoded bytes of a fixed holed cube are pinned, so a change to
    /// the cube's in-memory cell layout cannot move the file format. The
    /// cube mixes missing cells with `-0.0`, `0.0`, `1.0`, a subnormal and
    /// ordinary values.
    #[test]
    fn encoded_bytes_are_pinned() {
        let u = universe();
        let mut cube = UnfairnessCube::empty(&u);
        let subnormal = f64::from_bits(1);
        for (g, q, l, v) in [
            (0, 0, 0, -0.0),
            (1, 0, 1, 1.0),
            (2, 1, 0, subnormal),
            (3, 1, 1, 0.0),
            (5, 0, 0, 0.25),
            (10, 1, 1, 0.1 + 0.2),
        ] {
            cube.set(GroupId(g), QueryId(q), LocationId(l), v);
        }
        let mut snap = CubeSnapshot::new(u);
        snap.insert_cube("pinned", cube);
        let bytes = snap.to_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (606, 0xDE81_7EB1_0F86_16BA));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("fbox-store-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.fbxs", std::process::id()));
        let snap = snapshot();
        snap.save(&path).unwrap();
        let loaded = CubeSnapshot::load(&path).unwrap();
        assert_eq!(loaded.cubes().len(), 1);
        assert_eq!(loaded.to_bytes(), snap.to_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let snap = snapshot();
        let good = snap.to_bytes();

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            CubeSnapshot::from_bytes(&flipped),
            Err(CodecError::Invalid(_) | CodecError::UnexpectedEof { .. })
        ));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            CubeSnapshot::from_bytes(&bad_magic),
            Err(CodecError::Invalid("snapshot magic mismatch"))
        ));

        let mut bad_version = good;
        bad_version[4] = 99;
        // Version check fires before the checksum is even computed.
        assert!(matches!(
            CubeSnapshot::from_bytes(&bad_version),
            Err(CodecError::Invalid("unsupported snapshot version"))
        ));
    }

    #[test]
    fn load_reports_invalid_data_kind() {
        let dir = std::env::temp_dir().join("fbox-store-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("garbage-{}.fbxs", std::process::id()));
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let err = CubeSnapshot::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_cube_replaces_by_name() {
        let u = universe();
        let mut snap = CubeSnapshot::new(u.clone());
        snap.insert_cube("c", UnfairnessCube::empty(&u));
        let mut replacement = UnfairnessCube::empty(&u);
        replacement.set(GroupId(0), QueryId(0), LocationId(0), 1.0);
        snap.insert_cube("c", replacement);
        assert_eq!(snap.cubes().len(), 1);
        assert_eq!(snap.cube("c").unwrap().get(GroupId(0), QueryId(0), LocationId(0)), Some(1.0));
    }

    /// Frames `body` as a snapshot file with a freshly computed checksum,
    /// so decoding reaches the body.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&fnv1a(body).to_le_bytes());
        out
    }

    /// A hand-built body: a schema, groups as `(attr, value)` predicate
    /// lists, and no queries, locations, cubes or metadata.
    fn body(attributes: &[(&str, &[&str])], groups: &[&[(u16, u16)]]) -> Vec<u8> {
        let mut b = Vec::new();
        codec::put_len(&mut b, attributes.len());
        for (name, values) in attributes {
            codec::put_str(&mut b, name);
            codec::put_len(&mut b, values.len());
            for value in *values {
                codec::put_str(&mut b, value);
            }
        }
        codec::put_len(&mut b, groups.len());
        for predicates in groups {
            codec::put_len(&mut b, predicates.len());
            for &(a, v) in *predicates {
                codec::put_u16(&mut b, a);
                codec::put_u16(&mut b, v);
            }
        }
        for _ in 0..4 {
            codec::put_len(&mut b, 0);
        }
        b
    }

    fn invalid(body: &[u8]) -> Option<&'static str> {
        match CubeSnapshot::from_bytes(&frame(body)) {
            Err(CodecError::Invalid(what)) => Some(what),
            _ => None,
        }
    }

    #[test]
    fn hand_built_bodies_decode() {
        let b = body(&[("gender", &["M", "F"]), ("age", &["young"])], &[&[(0, 1), (1, 0)]]);
        let snap = CubeSnapshot::from_bytes(&frame(&b)).unwrap();
        assert_eq!(snap.universe().n_groups(), 1);
        assert_eq!(snap.to_bytes(), frame(&b));
    }

    #[test]
    fn duplicate_attribute_value_is_an_error() {
        let b = body(&[("gender", &["M", "M"])], &[]);
        assert_eq!(invalid(&b), Some("duplicate attribute name or value in snapshot"));
    }

    #[test]
    fn duplicate_attribute_name_is_an_error() {
        let b = body(&[("gender", &["M"]), ("gender", &["F"])], &[]);
        assert_eq!(invalid(&b), Some("duplicate attribute name or value in snapshot"));
    }

    #[test]
    fn group_label_naming_an_attribute_twice_is_an_error() {
        let b = body(&[("gender", &["M", "F"])], &[&[(0, 0), (0, 1)]]);
        assert_eq!(invalid(&b), Some("group predicates not in attribute order"));
    }

    #[test]
    fn cube_larger_than_the_remaining_bytes_is_an_error() {
        let mut u = Universe::new(Schema::new(vec![Attribute::new("gender", ["M"])]));
        u.add_group(GroupLabel::new(vec![(AttrId(0), ValueId(0))]));
        for i in 0..200 {
            u.add_query(format!("q{i}"), None);
            u.add_location(format!("l{i}"), None);
        }
        let mut b = Vec::new();
        encode_universe(&mut b, &u);
        codec::put_len(&mut b, 1);
        codec::put_str(&mut b, "c");
        for n in [1, 200, 200] {
            codec::put_len(&mut b, n);
        }
        // Enough bytes for the dimensions to pass as lengths, far too few
        // for 40 000 cells: refused before the cube is allocated.
        b.resize(b.len() + 1000, 0);
        assert!(matches!(
            CubeSnapshot::from_bytes(&frame(&b)),
            Err(CodecError::UnexpectedEof { wanted: 40_000, have: 1000 })
        ));
    }

    #[test]
    fn cube_value_outside_the_unit_interval_is_an_error() {
        let good = snapshot().to_bytes();
        let body = &good[8..good.len() - 8];
        let at = body.windows(8).position(|w| w == 0.25f64.to_le_bytes()).unwrap();
        for bad in [f64::NAN, -1e-320, 1.5, f64::INFINITY] {
            let mut b = body.to_vec();
            b[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            assert_eq!(invalid(&b), Some("cube value outside [0, 1]"), "value {bad}");
        }
    }

    #[test]
    fn checksummed_garbage_is_an_error_or_an_exact_round_trip() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let good = snapshot().to_bytes();
        let good_body = &good[8..good.len() - 8];
        let (mut decoded, mut rejected) = (0, 0);
        for case in 0..4000 {
            let body: Vec<u8> = if case % 2 == 0 {
                (0..next() % 256).map(|_| next() as u8).collect()
            } else {
                let mut b = good_body.to_vec();
                for _ in 0..=next() % 3 {
                    let bit = (next() % (b.len() as u64 * 8)) as usize;
                    b[bit / 8] ^= 1 << (bit % 8);
                }
                b
            };
            let framed = frame(&body);
            match CubeSnapshot::from_bytes(&framed) {
                Ok(snap) => {
                    assert_eq!(snap.to_bytes(), framed, "case {case}: decoded but not canonical");
                    decoded += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Flips in cell values and names decode; the rest are rejected.
        assert!(decoded > 0 && rejected > 0, "decoded {decoded}, rejected {rejected}");
    }
}

//! `docs/SPEC.md` must cover every field the spec parser accepts: this
//! test enumerates the parser's authoritative field list
//! ([`llamp_engine::spec::SPEC_FIELDS`]) plus the accepted backend names
//! (every [`llamp_engine::LP_ALIASES`] spelling included), preset and
//! sweep-parameter names, and requires each to appear
//! (backtick-quoted) in the documentation. Adding a spec field without
//! documenting it — or documenting a field the parser does not accept —
//! fails here.

use llamp_engine::spec::SPEC_FIELDS;
use llamp_engine::LP_ALIASES;

/// Every backend spelling the parser accepts in a spec's `backends`.
fn backend_names() -> Vec<&'static str> {
    let mut names = vec!["parametric", "eval"];
    names.extend(LP_ALIASES);
    names
}

fn spec_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SPEC.md");
    std::fs::read_to_string(path).expect("docs/SPEC.md exists")
}

#[test]
fn every_parser_field_is_documented() {
    let doc = spec_md();
    for field in SPEC_FIELDS {
        // Leaf name, backtick-quoted, must appear (e.g. "grid.window.lo"
        // requires `lo`). Table headers in SPEC.md quote keys this way.
        let leaf = field.rsplit('.').next().unwrap();
        assert!(
            doc.contains(&format!("`{leaf}`")),
            "docs/SPEC.md does not document spec field '{field}'"
        );
    }
}

#[test]
fn every_backend_preset_and_param_name_is_documented() {
    let doc = spec_md();
    for backend in backend_names() {
        assert!(
            doc.contains(&format!("`{backend}`")),
            "docs/SPEC.md does not document backend '{backend}'"
        );
    }
    for preset in ["cscs", "piz-daint", "didactic"] {
        assert!(
            doc.contains(&format!("`{preset}`")),
            "docs/SPEC.md does not document preset '{preset}'"
        );
    }
    for param in llamp_engine::SweepParam::ALL {
        assert!(
            doc.contains(&format!("`{}`", param.name())),
            "docs/SPEC.md does not document sweep param '{param}'"
        );
    }
}

#[test]
fn documented_table_keys_exist_in_the_parser() {
    // The reverse direction: every key documented in a SPEC.md field
    // table (rows shaped "| `key` | ...") must be accepted by the
    // parser. Only leaf keys are listed in tables, so compare leaves.
    let doc = spec_md();
    let leaves: Vec<&str> = SPEC_FIELDS
        .iter()
        .map(|f| f.rsplit('.').next().unwrap())
        .collect();
    let backends = backend_names();
    // Only rows of *field* tables count — those whose header row is
    // "| key | type | default | meaning |" (the backend and cache-kind
    // tables have different headers).
    let mut in_field_table = false;
    for line in doc.lines() {
        if line.starts_with("| key |") {
            in_field_table = true;
            continue;
        }
        if !line.starts_with('|') {
            in_field_table = false;
            continue;
        }
        if !in_field_table {
            continue;
        }
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(key) = rest.split('`').next() else {
            continue;
        };
        if backends.contains(&key) {
            continue;
        }
        // Table rows may use dotted paths ("window.lo"); compare leaves.
        let leaf = key.rsplit('.').next().unwrap();
        assert!(
            leaves.contains(&leaf),
            "docs/SPEC.md documents '{key}' but the parser does not accept it"
        );
    }
}

//! Text workload format: one query per line.
//!
//! ```text
//! skyline ABD     # subspace skyline of {A, B, D}
//! skyband 2 ABD   # 2-skyband of {A, B, D} (dominated by < 2 others)
//! member 17 ABD   # is object 17 a skyline object of {A, B, D}?
//! count 17        # in how many subspaces is object 17 a skyline object?
//! top 5           # the 5 most frequent subspace-skyline objects
//! ```
//!
//! Blank lines and lines starting with `#` are ignored; `#` also starts a
//! trailing comment on a query line.

use crate::error::ServeError;
use skycube_types::{DimMask, ObjId};
use std::fmt;

/// One parsed workload query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// `skyline <SPACE>`: the subspace skyline of `SPACE`.
    Skyline(DimMask),
    /// `skyband <K> <SPACE>`: the objects of `SPACE` dominated by fewer
    /// than `K` others (the k-skyband; `K = 1` is exactly the skyline).
    Skyband(usize, DimMask),
    /// `member <ID> <SPACE>`: is the object a skyline object of `SPACE`?
    Member(ObjId, DimMask),
    /// `count <ID>`: the object's subspace-skyline membership count.
    Count(ObjId),
    /// `top <K>`: the `K` most frequent subspace-skyline objects.
    Top(usize),
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Skyline(space) => write!(f, "skyline {space}"),
            Query::Skyband(k, space) => write!(f, "skyband {k} {space}"),
            Query::Member(o, space) => write!(f, "member {o} {space}"),
            Query::Count(o) => write!(f, "count {o}"),
            Query::Top(k) => write!(f, "top {k}"),
        }
    }
}

/// Parse a query subspace token: one or more dimension letters, none
/// repeated (`ABD`). The workload grammar and the CLI's `--space` both read
/// subspaces through this function; checking the subspace against a
/// dataset's dimensionality is left to the caller.
pub fn parse_space(token: &str) -> Result<DimMask, String> {
    let mask = DimMask::parse(token)
        .ok_or_else(|| format!("bad subspace {token:?}: expected dimension letters like ABD"))?;
    if mask.is_empty() {
        return Err(format!(
            "bad subspace {token:?}: a query subspace must name at least one dimension"
        ));
    }
    // DimMask::parse ORs letters together, so "AAB" would silently collapse
    // to AB; a repeated letter is almost certainly a workload typo.
    if token.chars().count() != mask.len() {
        return Err(format!(
            "bad subspace {token:?}: dimension letters must not repeat"
        ));
    }
    Ok(mask)
}

fn parse_id(token: &str) -> Result<ObjId, String> {
    match token.parse::<u64>() {
        Ok(wide) => ObjId::try_from(wide).map_err(|_| {
            format!(
                "bad object id {token:?}: exceeds the maximum id {}",
                ObjId::MAX
            )
        }),
        Err(_) => Err(format!(
            "bad object id {token:?}: expected a non-negative integer"
        )),
    }
}

/// Parse one workload line. Returns `Ok(None)` for blank and comment lines,
/// `Ok(Some(query))` for a query, and a diagnostic (without line number —
/// [`parse_workload`] adds it) otherwise.
pub fn parse_query_line(line: &str) -> Result<Option<Query>, String> {
    let line = match line.find('#') {
        Some(at) => &line[..at],
        None => line,
    };
    let mut tokens = line.split_whitespace();
    let Some(op) = tokens.next() else {
        return Ok(None);
    };
    let mut arg = |what: &str| {
        tokens
            .next()
            .map(str::to_owned)
            .ok_or_else(|| format!("`{op}` is missing its {what} argument"))
    };
    let query = match op {
        "skyline" => Query::Skyline(parse_space(&arg("subspace")?)?),
        "skyband" => {
            let token = arg("k")?;
            let k = token
                .parse::<usize>()
                .map_err(|_| format!("bad k {token:?}: expected a positive integer"))?;
            if k == 0 {
                return Err(
                    "bad k 0: the 0-skyband is empty by definition (no object is dominated \
                     by fewer than zero others); use k ≥ 1, where k = 1 is the skyline"
                        .to_string(),
                );
            }
            Query::Skyband(k, parse_space(&arg("subspace")?)?)
        }
        "member" => {
            let o = parse_id(&arg("object-id")?)?;
            Query::Member(o, parse_space(&arg("subspace")?)?)
        }
        "count" => Query::Count(parse_id(&arg("object-id")?)?),
        "top" => {
            let token = arg("k")?;
            let k = token
                .parse::<usize>()
                .map_err(|_| format!("bad k {token:?}: expected a non-negative integer"))?;
            Query::Top(k)
        }
        other => {
            return Err(format!(
                "unknown query {other:?} (expected skyline, skyband, member, count or top)"
            ))
        }
    };
    if let Some(extra) = tokens.next() {
        return Err(format!("trailing token {extra:?} after `{query}`"));
    }
    Ok(Some(query))
}

/// Parse a whole workload, one query per line. Diagnostics come back as
/// [`ServeError::BadWorkload`] carrying the 1-based line number of the
/// offending line (its `Display` keeps the legacy `line N: …` shape).
pub fn parse_workload(text: &str) -> Result<Vec<Query>, ServeError> {
    let mut queries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_query_line(line) {
            Ok(Some(q)) => queries.push(q),
            Ok(None) => {}
            Err(message) => {
                return Err(ServeError::BadWorkload {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_query_family() {
        let text =
            "\n# warmup\nskyline ABD\nskyband 2 ABD\nmember 17 ABD  # inline note\ncount 17\ntop 5\n";
        let queries = parse_workload(text).unwrap();
        assert_eq!(
            queries,
            vec![
                Query::Skyline(DimMask::from_dims([0, 1, 3])),
                Query::Skyband(2, DimMask::from_dims([0, 1, 3])),
                Query::Member(17, DimMask::from_dims([0, 1, 3])),
                Query::Count(17),
                Query::Top(5),
            ]
        );
    }

    #[test]
    fn skyband_zero_is_rejected_with_the_line_number() {
        let err = parse_workload("skyline AB\nskyband 0 AB\n").unwrap_err();
        assert_eq!(err.kind(), "bad-workload");
        assert!(
            matches!(err, ServeError::BadWorkload { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("0-skyband is empty"), "{err}");
        assert!(err.to_string().contains("k ≥ 1"), "{err}");
        // Bad/missing arguments get their own diagnostics.
        let err = parse_query_line("skyband x AB").unwrap_err();
        assert!(err.contains("bad k"), "{err}");
        let err = parse_query_line("skyband 2").unwrap_err();
        assert!(err.contains("missing its subspace argument"), "{err}");
    }

    #[test]
    fn display_round_trips() {
        for q in [
            Query::Skyline(DimMask::from_dims([1, 2])),
            Query::Skyband(3, DimMask::from_dims([1, 2])),
            Query::Member(3, DimMask::from_dims([0])),
            Query::Count(0),
            Query::Top(10),
        ] {
            assert_eq!(parse_query_line(&q.to_string()).unwrap(), Some(q));
        }
    }

    #[test]
    fn diagnostics_name_the_line() {
        let err = parse_workload("skyline AB\nfetch AB\n").unwrap_err();
        assert_eq!(err.kind(), "bad-workload");
        assert!(
            matches!(err, ServeError::BadWorkload { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        assert!(err.to_string().contains("unknown query"), "{err}");

        let err = parse_workload("member 1\n").unwrap_err().to_string();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("missing its subspace argument"), "{err}");

        let err = parse_workload("skyline AB extra\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("trailing token"), "{err}");

        let err = parse_workload("count x\n").unwrap_err().to_string();
        assert!(err.contains("bad object id"), "{err}");
    }

    #[test]
    fn repeated_dimension_letters_are_rejected() {
        let err = parse_workload("skyline AAB\n").unwrap_err().to_string();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("must not repeat"), "{err}");
        let err = parse_query_line("member 1 ADA").unwrap_err();
        assert!(err.contains("must not repeat"), "{err}");
        // Distinct letters in any order are fine.
        assert!(parse_query_line("skyline DBA").unwrap().is_some());
    }

    #[test]
    fn oversized_object_ids_are_diagnosed_as_such() {
        let too_big = (ObjId::MAX as u64 + 1).to_string();
        let err = parse_workload(&format!("count {too_big}\n"))
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(err.contains("exceeds the maximum"), "{err}");
        // The largest representable id still parses.
        let q = parse_query_line(&format!("count {}", ObjId::MAX)).unwrap();
        assert_eq!(q, Some(Query::Count(ObjId::MAX)));
        // Garbage stays a plain parse diagnostic.
        let err = parse_query_line("count -3").unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
    }
}

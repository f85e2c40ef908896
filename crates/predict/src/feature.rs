//! Job features: attributes and attribute combinations.
//!
//! No single feature is predictive for every job (§4.1), so 3σPredict keeps
//! a history per feature. A feature is a (possibly empty) list of attribute
//! keys; its *value* for a job is the joined attribute values. The empty
//! feature (`global`) matches every job and guarantees a fallback history.

/// Source of job attributes (decouples the predictor from any particular
/// job representation).
pub trait AttributeSource {
    /// Looks up an attribute by key.
    fn get_attr(&self, key: &str) -> Option<&str>;
}

impl AttributeSource for [(String, String)] {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

impl AttributeSource for Vec<(String, String)> {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.as_slice().get_attr(key)
    }
}

impl<const N: usize> AttributeSource for [(&str, &str); N] {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

impl<const N: usize> AttributeSource for [(String, String); N] {
    fn get_attr(&self, key: &str) -> Option<&str> {
        self.as_slice().get_attr(key)
    }
}

impl<T: AttributeSource + ?Sized> AttributeSource for &T {
    fn get_attr(&self, key: &str) -> Option<&str> {
        (**self).get_attr(key)
    }
}

/// One feature: a named combination of attribute keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// Display name (e.g. `"user+job_name"`).
    pub name: &'static str,
    /// Attribute keys combined into the feature value.
    pub keys: Vec<&'static str>,
}

/// The feature's value for a job: its attribute values joined by a unit
/// separator, `"*"` for the empty-key feature, `None` when any constituent
/// attribute is missing. A single-key feature borrows the attribute and a
/// multi-key one joins into `buf` (cleared first), so nothing allocates
/// once `buf` has grown.
pub(crate) fn value_of<'a>(
    feature: &Feature,
    attrs: &'a impl AttributeSource,
    buf: &'a mut String,
) -> Option<&'a str> {
    match feature.keys[..] {
        [] => Some("*"),
        [key] => attrs.get_attr(key),
        _ => {
            buf.clear();
            for (i, key) in feature.keys.iter().enumerate() {
                let v = attrs.get_attr(key)?;
                if i > 0 {
                    buf.push('\u{1f}'); // unit separator: unambiguous join
                }
                buf.push_str(v);
            }
            Some(buf)
        }
    }
}

/// An ordered set of features, most generic last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSet {
    /// The features, in priority-agnostic order (selection is NMAE-driven).
    pub features: Vec<Feature>,
}

impl FeatureSet {
    /// The default feature set used throughout the evaluation: single
    /// attributes (user, job name, priority, resources requested) and the
    /// pairwise combinations the paper mentions, plus the global fallback.
    /// The trace's `class` attribute is deliberately *not* a feature (§5
    /// excludes the class-membership feature for fairness).
    pub fn standard() -> Self {
        let f = |name: &'static str, keys: &[&'static str]| Feature {
            name,
            keys: keys.to_vec(),
        };
        Self {
            features: vec![
                f("user+job_name", &["user", "job_name"]),
                f("user+tasks", &["user", "tasks"]),
                f("job_name+tasks", &["job_name", "tasks"]),
                f("user", &["user"]),
                f("job_name", &["job_name"]),
                f("tasks", &["tasks"]),
                f("priority", &["priority"]),
                f("global", &[]),
            ],
        }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(feature: &Feature, attrs: &impl AttributeSource) -> Option<String> {
        value_of(feature, attrs, &mut String::new()).map(str::to_owned)
    }

    #[test]
    fn extract_single_and_combined() {
        let attrs = [("user", "alice"), ("job_name", "etl"), ("tasks", "4")];
        let user = Feature {
            name: "user",
            keys: vec!["user"],
        };
        let combo = Feature {
            name: "user+job_name",
            keys: vec!["user", "job_name"],
        };
        assert_eq!(extract(&user, &attrs).unwrap(), "alice");
        assert_eq!(extract(&combo, &attrs).unwrap(), "alice\u{1f}etl");
    }

    #[test]
    fn missing_attribute_yields_none() {
        let attrs = [("user", "alice")];
        let combo = Feature {
            name: "user+job_name",
            keys: vec!["user", "job_name"],
        };
        assert_eq!(extract(&combo, &attrs), None);
    }

    #[test]
    fn global_feature_matches_everything() {
        let attrs: [(&str, &str); 0] = [];
        let global = Feature {
            name: "global",
            keys: vec![],
        };
        assert_eq!(extract(&global, &attrs).unwrap(), "*");
    }

    #[test]
    fn separator_prevents_value_collisions() {
        // ("ab", "c") must differ from ("a", "bc").
        let combo = Feature {
            name: "x+y",
            keys: vec!["x", "y"],
        };
        let a = extract(&combo, &[("x", "ab"), ("y", "c")]).unwrap();
        let b = extract(&combo, &[("x", "a"), ("y", "bc")]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn standard_set_has_global_fallback_and_no_class() {
        let fs = FeatureSet::standard();
        assert!(fs.features.iter().any(|f| f.keys.is_empty()));
        assert!(fs.features.iter().all(|f| !f.keys.contains(&"class")));
        assert!(!fs.is_empty());
    }
}

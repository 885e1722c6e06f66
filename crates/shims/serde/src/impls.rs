//! Trait impls for primitives and standard containers.

use crate::{Content, Deserialize, Error, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_bool().ok_or_else(|| Error::expected("bool", c.kind()))
    }
}

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let u = c.as_u64().ok_or_else(|| Error::expected("unsigned integer", c.kind()))?;
                <$t>::try_from(u).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
uint_impl!(u8, u16, u32, u64, usize);

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 { Content::UInt(v as u64) } else { Content::Int(v) }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let i = c.as_i64().ok_or_else(|| Error::expected("integer", c.kind()))?;
                <$t>::try_from(i).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
int_impl!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_f64()
            .ok_or_else(|| Error::expected("number", c.kind()))
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(c.as_f64()
            .ok_or_else(|| Error::expected("number", c.kind()))? as f32)
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let s = c
            .as_str()
            .ok_or_else(|| Error::expected("string", c.kind()))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(ch), None) => Ok(ch),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", c.kind()))
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(Box::new(T::from_content(c)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Vec::<T>::from_content(c).map(Into::into)
    }
}

// ---------------------------------------------------------------------
// Option / containers
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(None),
            other => Ok(Some(T::from_content(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_array()
            .ok_or_else(|| Error::expected("array", c.kind()))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        Content::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_content(c)?;
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}")))
    }
}

macro_rules! tuple_impl {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Array(vec![$(self.$n.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let a = c.as_array().ok_or_else(|| Error::expected("array", c.kind()))?;
                let expected = [$($n),+].len();
                if a.len() != expected {
                    return Err(Error::custom(format!(
                        "expected tuple of length {expected}, got {}", a.len()
                    )));
                }
                Ok(($($t::from_content(&a[$n])?,)+))
            }
        }
    )*};
}
tuple_impl! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

// ---------------------------------------------------------------------
// Maps (keys stringified, as JSON requires)
// ---------------------------------------------------------------------

fn key_to_string(c: Content) -> String {
    match c {
        Content::Str(s) => s,
        Content::UInt(u) => u.to_string(),
        Content::Int(i) => i.to_string(),
        Content::Bool(b) => b.to_string(),
        other => panic!("map key must be a string or integer, got {}", other.kind()),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, Error> {
    if let Ok(k) = K::from_content(&Content::Str(s.to_string())) {
        return Ok(k);
    }
    if let Ok(u) = s.parse::<u64>() {
        if let Ok(k) = K::from_content(&Content::UInt(u)) {
            return Ok(k);
        }
    }
    if let Ok(i) = s.parse::<i64>() {
        if let Ok(k) = K::from_content(&Content::Int(i)) {
            return Ok(k);
        }
    }
    Err(Error::custom(format!(
        "cannot reconstruct map key from `{s}`"
    )))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k.to_content()), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_object()
            .ok_or_else(|| Error::expected("object", c.kind()))?
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_content(&self) -> Content {
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (key_to_string(k.to_content()), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Object(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_object()
            .ok_or_else(|| Error::expected("object", c.kind()))?
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(c.clone())
    }
}

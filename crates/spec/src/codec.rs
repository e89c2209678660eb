//! The field tables: every document's JSON form, declared once.
//!
//! Each document type lists its members once, in encoding order, in an
//! `object!` table (structs) or a `tagged!` table (enums carrying a
//! `"type"` tag). From that one list the macros generate both directions:
//!
//! * an **encoder** that appends the compact document to a caller-owned
//!   `String` (a frame or WAL buffer), with no intermediate tree;
//! * a one-pass **pull decoder** from the text straight into the typed
//!   value. Unknown fields, missing fields and duplicate keys are checked
//!   against the table with a per-object seen mask, and the shared
//!   `Reader` keeps the grammar's depth cap and finite-number rule.
//!
//! Decoding is **strict**: unknown object fields, unknown `"type"` tags, and
//! unsupported `version` numbers are hard errors, so typos in hand-written
//! documents fail loudly instead of silently configuring the wrong scenario.
//! A member that is `null` counts as absent. When a decode fails, the text
//! is re-read by [`json::parse`], so a syntax error (bad nesting, a
//! duplicate key, a non-finite number) is reported before any schema error.
//!
//! **Byte compatibility is a rule:** the field order, the `{}` lexemes of
//! `f64` values and the string escapes are those of the tree encoder this
//! replaced, so stored data dirs, doc fences and old clients keep working.
//! `tests/codec_compat.rs` holds one document of every kind to that.

use std::borrow::Cow;

use crate::error::SpecError;
use crate::json::{self, write_f64, write_string, write_u64, Reader};
use crate::model::{
    ArmsSpec, ChangePointSpec, ChurnWindowSpec, DriftSpec, EstimatorSpec, FamilySpec, FeedbackSpec,
    FleetSpec, FleetTenant, GradualDriftSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus,
    WorkloadSpec, SPEC_VERSION,
};

/// A value with a strict JSON form.
pub(crate) trait Codec: Sized {
    /// Appends the compact JSON form to `out`.
    fn encode(&self, out: &mut String);
    /// Decodes the value at the reader's position; `ctx` names the
    /// enclosing object in errors.
    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError>;
    /// The value of an absent (or `null`) member; `None` makes the member
    /// required.
    fn missing() -> Option<Self> {
        None
    }
    /// Whether an `omit` member is left out of the encoding.
    fn is_absent(&self) -> bool {
        false
    }
}

/// The members of an object without its braces, so a tagged variant can
/// carry another table's members inline.
pub(crate) trait Fields: Sized {
    /// Appends `,"key":value` for every member present.
    fn encode_fields(&self, out: &mut String);
    /// Decodes the remaining members of an object already opened.
    fn decode_fields(r: &mut Reader<'_>, members: Members) -> Result<Self, SpecError>;
}

/// Where an object's `"type"` member stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// A plain object: `"type"` is an unknown field.
    None,
    /// The tag was the first member and has been read.
    Read,
    /// The tag was found ahead; its member is still in the stream.
    Ahead,
}

/// The state of an object whose `{` has been read.
#[derive(Clone, Copy)]
pub(crate) struct Members {
    first: bool,
    tag: Tag,
}

impl Members {
    pub(crate) const PLAIN: Members = Members {
        first: true,
        tag: Tag::None,
    };
}

/// Runs the member loop of an open object: `field` decodes each member
/// `keys` declares; `null` members count as absent. Returns the first
/// unknown key, which the caller reports after its missing-field checks.
pub(crate) fn members<'a>(
    r: &mut Reader<'a>,
    mut m: Members,
    keys: &[&str],
    mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), SpecError>,
) -> Result<Option<String>, SpecError> {
    debug_assert!(keys.len() <= 64, "the seen mask holds 64 members");
    let mut seen = 0u64;
    let mut tag_seen = m.tag == Tag::Read;
    let mut unknown = None;
    while let Some(key) = r.next_key(&mut m.first)? {
        let slot = keys.iter().position(|k| *k == key);
        let fresh = match slot {
            Some(i) => {
                let bit = 1u64 << i;
                let fresh = seen & bit == 0;
                seen |= bit;
                fresh
            }
            None if key == "type" && m.tag != Tag::None => !std::mem::replace(&mut tag_seen, true),
            None => {
                unknown.get_or_insert_with(|| key.to_string());
                r.skip_value()?;
                continue;
            }
        };
        if !fresh {
            return Err(r.error(format!("duplicate object key {key:?}")));
        }
        match slot {
            Some(_) if r.peek() != Some(b'n') => field(r, &key)?,
            _ => r.skip_value()?,
        }
    }
    Ok(unknown)
}

/// Opens a tagged object and reads its `"type"`: straight away when it is
/// the first member, by a look-ahead over the object otherwise.
pub(crate) fn read_tag<'a>(
    r: &mut Reader<'a>,
    ctx: &'static str,
) -> Result<(Cow<'a, str>, Members), SpecError> {
    open_object(r, ctx)?;
    let mut probe = *r;
    let (mut first, mut ahead) = (true, false);
    while let Some(key) = probe.next_key(&mut first)? {
        match probe.peek() {
            Some(b'"') if key == "type" => {
                let tag = probe.string()?;
                if ahead {
                    return Ok((
                        tag,
                        Members {
                            first: true,
                            tag: Tag::Ahead,
                        },
                    ));
                }
                *r = probe;
                return Ok((
                    tag,
                    Members {
                        first: false,
                        tag: Tag::Read,
                    },
                ));
            }
            Some(b'n') => {}
            _ if key == "type" => return Err(invalid(&mut probe, ctx, "expected a string")),
            _ => {}
        }
        ahead = true;
        probe.skip_value()?;
    }
    Err(SpecError::MissingField {
        context: ctx,
        field: "type",
    })
}

pub(crate) fn open_object(r: &mut Reader<'_>, ctx: &'static str) -> Result<(), SpecError> {
    if r.peek() != Some(b'{') {
        return Err(SpecError::Invalid {
            context: ctx,
            message: "expected a JSON object".into(),
        });
    }
    r.open(b'{')
}

/// A wrong-typed value: skips it and quotes it in the error.
fn invalid(r: &mut Reader<'_>, ctx: &'static str, expected: &str) -> SpecError {
    match r.describe_value() {
        Ok(got) => SpecError::Invalid {
            context: ctx,
            message: format!("{expected}, got {got}"),
        },
        Err(syntax) => syntax,
    }
}

/// Decodes one whole document. On failure the text is re-read by
/// [`json::parse`], whose syntax error, if any, takes precedence.
pub(crate) fn decode_text<T: Codec>(text: &str) -> Result<T, SpecError> {
    let mut r = Reader::new(text);
    r.skip_whitespace();
    let decoded = T::decode(&mut r, "document").and_then(|value| r.finish().map(|()| value));
    decoded.map_err(|schema| json::parse(text).err().unwrap_or(schema))
}

// ---------------------------------------------------------------------------
// values
// ---------------------------------------------------------------------------

macro_rules! integer {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }

            fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
                let mut probe = *r;
                if matches!(probe.peek(), Some(b'-' | b'0'..=b'9')) {
                    if let Ok(v) = probe.number()?.parse::<$ty>() {
                        *r = probe;
                        return Ok(v);
                    }
                }
                Err(invalid(r, ctx, "expected a non-negative integer"))
            }
        }
    )*};
}

integer!(u64, usize);

impl Codec for u32 {
    fn encode(&self, out: &mut String) {
        write_u64(out, u64::from(*self));
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        let v = u64::decode(r, ctx)?;
        u32::try_from(v).map_err(|_| SpecError::Invalid {
            context: ctx,
            message: format!("{v} does not fit in u32"),
        })
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut String) {
        write_f64(out, *self);
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        if !matches!(r.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(invalid(r, ctx, "expected a number"));
        }
        let lexeme = r.number()?;
        // Up to 15 digits convert exactly without the float parser; most
        // rewards and observations are 0 or 1.
        if lexeme.len() <= 15 && lexeme.bytes().all(|b| b.is_ascii_digit()) {
            let v = lexeme
                .bytes()
                .fold(0u64, |v, b| v * 10 + u64::from(b - b'0'));
            return Ok(v as f64);
        }
        r.finite(lexeme)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        match r.peek() {
            Some(b't') => r.keyword("true").map(|()| true),
            Some(b'f') => r.keyword("false").map(|()| false),
            _ => Err(invalid(r, ctx, "expected a boolean")),
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut String) {
        write_string(out, self);
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        match r.peek() {
            Some(b'"') => r.string().map(Cow::into_owned),
            _ => Err(invalid(r, ctx, "expected a string")),
        }
    }
}

fn encode_slice<T: Codec>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.encode(out);
    }
    out.push(']');
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut String) {
        encode_slice(self, out);
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        if r.peek() != Some(b'[') {
            return Err(invalid(r, ctx, "expected an array"));
        }
        r.open(b'[')?;
        let (mut items, mut first) = (Vec::new(), true);
        while r.next_item(&mut first)? {
            items.push(T::decode(r, ctx)?);
        }
        Ok(items)
    }

    fn is_absent(&self) -> bool {
        self.is_empty()
    }
}

/// Scalars that pair up as a 2-element array (`[u, v]`, `[arm, reward]`).
trait Scalar: Codec {}
impl Scalar for u64 {}
impl Scalar for usize {}
impl Scalar for f64 {}

impl<A: Scalar, B: Scalar> Codec for (A, B) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(']');
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        let start = *r;
        if r.peek() == Some(b'[') {
            r.open(b'[')?;
            let mut first = true;
            if r.next_item(&mut first)? {
                let a = A::decode(r, ctx)?;
                if r.next_item(&mut first)? {
                    let b = B::decode(r, ctx)?;
                    if !r.next_item(&mut first)? {
                        return Ok((a, b));
                    }
                }
            }
        }
        *r = start;
        Err(invalid(r, ctx, "expected a 2-element array"))
    }
}

/// Raw xoshiro256++ state words.
impl Codec for [u64; 4] {
    fn encode(&self, out: &mut String) {
        encode_slice(self, out);
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        <[u64; 4]>::try_from(Vec::<u64>::decode(r, ctx)?).map_err(|words| SpecError::Invalid {
            context: ctx,
            message: format!("rng state must be 4 words, got {}", words.len()),
        })
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        T::decode(r, ctx).map(Box::new)
    }
}

impl<T: Fields> Fields for Box<T> {
    fn encode_fields(&self, out: &mut String) {
        (**self).encode_fields(out);
    }

    fn decode_fields(r: &mut Reader<'_>, members: Members) -> Result<Self, SpecError> {
        T::decode_fields(r, members).map(Box::new)
    }
}

/// `None` encodes as `null`, unless its member is marked `omit`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(value) => value.encode(out),
            None => out.push_str("null"),
        }
    }

    fn decode(r: &mut Reader<'_>, ctx: &'static str) -> Result<Self, SpecError> {
        T::decode(r, ctx).map(Some)
    }

    fn missing() -> Option<Self> {
        Some(None)
    }

    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

// ---------------------------------------------------------------------------
// the table macros
// ---------------------------------------------------------------------------

/// One member of a table: `"key" => field: Type`, optionally followed by
/// `[omit]` (left out when absent: `None` or empty; its default when
/// missing) or `[gate check]` (`check(&value)` runs as soon as the member is
/// read, so a version gate fails before any other member is looked at).
macro_rules! member {
    (encode $out:ident, $key:literal, $value:ident) => {{
        $out.push_str(concat!(",\"", $key, "\":"));
        $crate::codec::Codec::encode($value, $out);
    }};
    (encode $out:ident, $key:literal, $value:ident, omit) => {
        if !$crate::codec::Codec::is_absent($value) {
            $crate::codec::member!(encode $out, $key, $value);
        }
    };
    (encode $out:ident, $key:literal, $value:ident, gate $check:path) => {
        $crate::codec::member!(encode $out, $key, $value)
    };
    (gate $value:ident) => {};
    (gate $value:ident, omit) => {};
    (gate $value:ident, gate $check:path) => {
        $check(&$value)?
    };
    (missing $ctx:literal, $key:literal, $value:ident) => {
        $value
            .or_else($crate::codec::Codec::missing)
            .ok_or($crate::error::SpecError::MissingField {
                context: $ctx,
                field: $key,
            })
    };
    (missing $ctx:literal, $key:literal, $value:ident, omit) => {
        Ok::<_, $crate::error::SpecError>($value.unwrap_or_default())
    };
    (missing $ctx:literal, $key:literal, $value:ident, gate $check:path) => {
        $crate::codec::member!(missing $ctx, $key, $value)
    };
}

/// Decodes the members of an open object into the locals the table names,
/// then evaluates `$ctor` with them.
macro_rules! decode_members {
    ($r:expr, $m:expr, $ctx:literal, {}, $($ctor:tt)*) => {{
        if let Some(field) = $crate::codec::members($r, $m, &[], |_, _| Ok(()))? {
            return Err($crate::error::SpecError::UnknownField { context: $ctx, field });
        }
        $($ctor)*
    }};
    ($r:expr, $m:expr, $ctx:literal,
     { $($key:literal => $field:ident: $fty:ty $([$($mode:tt)*])?),* },
     $($ctor:tt)*) => {{
        $(let mut $field: Option<$fty> = None;)*
        let unknown = $crate::codec::members($r, $m, &[$($key),*], |r, key| {
            match key {
                $($key => {
                    let value = <$fty as $crate::codec::Codec>::decode(r, $ctx)?;
                    $crate::codec::member!(gate value $(, $($mode)*)?);
                    $field = Some(value);
                })*
                _ => unreachable!("members passes declared keys only"),
            }
            Ok(())
        })?;
        $(let $field = $crate::codec::member!(missing $ctx, $key, $field $(, $($mode)*)?)?;)*
        if let Some(field) = unknown {
            return Err($crate::error::SpecError::UnknownField { context: $ctx, field });
        }
        $($ctor)*
    }};
}

/// The JSON object form of a struct (or, with an explicit `[pattern]`, of
/// any type that pattern destructures), with an optional `then check` run
/// on the decoded value.
macro_rules! object {
    ($name:ident as $ctx:literal {
        $($key:literal => $field:ident: $fty:ty $([$($mode:tt)*])?),* $(,)?
    } $(then $check:path)?) => {
        $crate::codec::object!(($name) as $ctx [$name { $($field),* }] {
            $($key => $field: $fty $([$($mode)*])?),*
        } $(then $check)?);
    };
    (($ty:ty) as $ctx:literal [$($ctor:tt)*] {
        $($key:literal => $field:ident: $fty:ty $([$($mode:tt)*])?),* $(,)?
    } $(then $check:path)?) => {
        impl $crate::codec::Fields for $ty {
            fn encode_fields(&self, out: &mut String) {
                let $($ctor)* = self;
                $($crate::codec::member!(encode out, $key, $field $(, $($mode)*)?);)*
            }

            fn decode_fields(
                r: &mut $crate::json::Reader<'_>,
                members: $crate::codec::Members,
            ) -> Result<Self, $crate::error::SpecError> {
                Ok($crate::codec::decode_members!(r, members, $ctx, {
                    $($key => $field: $fty $([$($mode)*])?),*
                }, $($ctor)*))
            }
        }

        impl $crate::codec::Codec for $ty {
            fn encode(&self, out: &mut String) {
                let start = out.len();
                $crate::codec::Fields::encode_fields(self, out);
                if out.len() == start {
                    out.push_str("{}");
                } else {
                    // Every member starts with a comma; the first opens.
                    out.replace_range(start..start + 1, "{");
                    out.push('}');
                }
            }

            fn decode(
                r: &mut $crate::json::Reader<'_>,
                _ctx: &'static str,
            ) -> Result<Self, $crate::error::SpecError> {
                $crate::codec::open_object(r, $ctx)?;
                let value: Self = $crate::codec::Fields::decode_fields(r, $crate::codec::Members::PLAIN)?;
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// One variant of a `tagged!` table: `Name { members }` (unit variants
/// are `Name {}`), `Name("key": Type)` for a newtype carried in one member,
/// or `Name(Inner)` for a newtype whose own table's members sit inline.
macro_rules! variant {
    (pattern $ty:ident $variant:ident {} $bind:ident) => {
        $ty::$variant
    };
    (pattern $ty:ident $variant:ident { $($key:literal => $field:ident: $fty:ty $([$($mode:tt)*])?),* } $bind:ident) => {
        $ty::$variant { $($field),* }
    };
    (pattern $ty:ident $variant:ident ($($inner:tt)*) $bind:ident) => {
        $ty::$variant($bind)
    };
    (encode $out:ident { $($key:literal => $field:ident: $fty:ty $([$($mode:tt)*])?),* } $bind:ident) => {
        $($crate::codec::member!(encode $out, $key, $field $(, $($mode)*)?);)*
    };
    (encode $out:ident ($key:literal: $fty:ty) $bind:ident) => {
        $crate::codec::member!(encode $out, $key, $bind)
    };
    (encode $out:ident ($inner:ty) $bind:ident) => {
        $crate::codec::Fields::encode_fields($bind, $out)
    };
    (decode $r:ident $m:ident $ctx:literal $ty:ident $variant:ident {} $bind:ident) => {
        $crate::codec::decode_members!($r, $m, $ctx, {}, $ty::$variant)
    };
    (decode $r:ident $m:ident $ctx:literal $ty:ident $variant:ident {
        $($key:literal => $field:ident: $fty:ty $([$($mode:tt)*])?),*
    } $bind:ident) => {
        $crate::codec::decode_members!($r, $m, $ctx, {
            $($key => $field: $fty $([$($mode)*])?),*
        }, $ty::$variant { $($field),* })
    };
    (decode $r:ident $m:ident $ctx:literal $ty:ident $variant:ident ($key:literal: $fty:ty) $bind:ident) => {
        $crate::codec::decode_members!($r, $m, $ctx, { $key => $bind: $fty }, $ty::$variant($bind))
    };
    (decode $r:ident $m:ident $ctx:literal $ty:ident $variant:ident ($inner:ty) $bind:ident) => {
        $ty::$variant(<$inner as $crate::codec::Fields>::decode_fields($r, $m)?)
    };
}

/// The JSON form of an enum as an object tagged by its `"type"` member,
/// one `"tag" => Variant` line per variant, with an optional `then check`.
macro_rules! tagged {
    ($ty:ident as $ctx:literal {
        $($tag:literal => $variant:ident $body:tt),* $(,)?
    } $(then $check:path)?) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, out: &mut String) {
                match self {
                    $($crate::codec::variant!(pattern $ty $variant $body value) => {
                        out.push_str(concat!("{\"type\":\"", $tag, "\""));
                        $crate::codec::variant!(encode out $body value);
                        out.push('}');
                    })*
                }
            }

            fn decode(
                r: &mut $crate::json::Reader<'_>,
                _ctx: &'static str,
            ) -> Result<Self, $crate::error::SpecError> {
                let (tag, members) = $crate::codec::read_tag(r, $ctx)?;
                let value = match &*tag {
                    $($tag => $crate::codec::variant!(decode r members $ctx $ty $variant $body value),)*
                    other => {
                        return Err($crate::error::SpecError::UnknownVariant {
                            context: $ctx,
                            variant: other.to_owned(),
                        })
                    }
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// The JSON form of a fieldless enum as a bare string token.
macro_rules! tokens {
    ($ty:ident as $ctx:literal { $($token:literal => $variant:ident),* $(,)? }) => {
        impl $ty {
            /// The variant's wire token.
            pub(crate) fn token(self) -> &'static str {
                match self {
                    $($ty::$variant => $token,)*
                }
            }

            /// The variant a wire token names.
            pub(crate) fn from_token(token: &str) -> Result<Self, $crate::error::SpecError> {
                match token {
                    $($token => Ok($ty::$variant),)*
                    other => Err($crate::error::SpecError::UnknownVariant {
                        context: $ctx,
                        variant: other.to_owned(),
                    }),
                }
            }
        }

        impl $crate::codec::Codec for $ty {
            fn encode(&self, out: &mut String) {
                $crate::json::write_string(out, self.token());
            }

            fn decode(
                r: &mut $crate::json::Reader<'_>,
                _ctx: &'static str,
            ) -> Result<Self, $crate::error::SpecError> {
                Self::from_token(&<String as $crate::codec::Codec>::decode(r, $ctx)?)
            }
        }
    };
}

/// The public text entry points of a top-level document.
macro_rules! text_entry_points {
    ($($ty:ident: $what:literal;)*) => {$(
        impl $ty {
            #[doc = concat!("Encodes the ", $what, " to a compact JSON document.")]
            pub fn to_json_text(&self) -> String {
                let mut out = String::new();
                self.write_json(&mut out);
                out
            }

            #[doc = concat!("Appends the ", $what, " as a compact JSON document to `out` ")]
            /// (a reused frame or file buffer); the bytes equal
            #[doc = concat!("[`", stringify!($ty), "::to_json_text`].")]
            pub fn write_json(&self, out: &mut String) {
                $crate::codec::Codec::encode(self, out);
            }

            #[doc = concat!("Decodes a ", $what, " from JSON text (strict: unknown fields, ")]
            /// unknown variants, duplicate keys and unsupported versions are
            /// errors).
            pub fn from_json_text(text: &str) -> Result<Self, $crate::error::SpecError> {
                $crate::codec::decode_text(text)
            }
        }
    )*};
}

pub(crate) use {decode_members, member, object, tagged, text_entry_points, tokens, variant};

// ---------------------------------------------------------------------------
// the spec documents
// ---------------------------------------------------------------------------

tagged!(GraphSpec as "GraphSpec" {
    "erdos_renyi" => ErdosRenyi {
        "num_arms" => num_arms: usize,
        "edge_prob" => edge_prob: f64
    },
    "preferential_attachment" => PreferentialAttachment {
        "num_arms" => num_arms: usize,
        "edges_per_node" => edges_per_node: usize
    },
    "planted_partition" => PlantedPartition {
        "num_arms" => num_arms: usize,
        "communities" => communities: usize,
        "p_in" => p_in: f64,
        "p_out" => p_out: f64
    },
    "random_geometric" => RandomGeometric {
        "num_arms" => num_arms: usize,
        "radius" => radius: f64
    },
    "explicit" => Explicit {
        "num_arms" => num_arms: usize,
        "edges" => edges: Vec<(usize, usize)>
    },
});

tagged!(ArmsSpec as "ArmsSpec" {
    "bernoulli" => Bernoulli { "means" => means: Vec<f64> },
    "uniform_mean_bernoulli" => UniformMeanBernoulli { "num_arms" => num_arms: usize },
    "beta" => Beta { "shapes" => shapes: Vec<(f64, f64)> },
    "click_through_beta" => ClickThroughBeta {
        "num_arms" => num_arms: usize,
        "floor" => floor: f64,
        "spread" => spread: f64,
        "concentration" => concentration: f64
    },
    "uniform" => Uniform { "ranges" => ranges: Vec<(f64, f64)> },
});

tagged!(FamilySpec as "FamilySpec" {
    "at_most_m" => AtMostM { "m" => m: usize },
    "exactly_m" => ExactlyM { "m" => m: usize },
    "independent_sets" => IndependentSets { "max_size" => max_size: usize },
    "explicit" => Explicit { "strategies" => strategies: Vec<Vec<usize>> },
});

tagged!(EstimatorSpec as "EstimatorSpec" {
    "stationary" => Stationary {},
    "discounted" => Discounted { "gamma" => gamma: f64 },
    "sliding_window" => SlidingWindow { "window" => window: usize },
} then EstimatorSpec::validate);

object!(GradualDriftSpec as "DriftSpec" {
    "amplitude" => amplitude: f64,
    "period" => period: u64,
});

object!(ChangePointSpec as "DriftSpec" {
    "round" => round: u64,
    "rotation" => rotation: usize,
});

object!(ChurnWindowSpec as "DriftSpec" {
    "arm" => arm: usize,
    "from" => from: u64,
    "to" => to: u64,
});

object!(DriftSpec as "DriftSpec" {
    "gradual" => gradual: Option<GradualDriftSpec> [omit],
    "change_points" => change_points: Vec<ChangePointSpec> [omit],
    "churn" => churn: Vec<ChurnWindowSpec> [omit],
});

tagged!(PolicySpec as "PolicySpec" {
    "dfl_sso" => DflSso {},
    "dfl_ssr" => DflSsr {},
    "dfl_cso" => DflCso {},
    "dfl_csr" => DflCsr {},
    "dfl_sso_greedy_neighbor" => DflSsoGreedyNeighbor {},
    "dfl_ssr_greedy_neighbor" => DflSsrGreedyNeighbor {},
    "moss" => Moss { "horizon" => horizon: Option<usize> [omit] },
    "ucb1" => Ucb1 {},
    "ucb_tuned" => UcbTuned {},
    "kl_ucb" => KlUcb { "c" => c: Option<f64> [omit] },
    "ucb_v" => UcbV {
        "zeta" => zeta: Option<f64> [omit],
        "c" => c: Option<f64> [omit]
    },
    "epsilon_greedy" => EpsilonGreedy { "epsilon" => epsilon: f64, "seed" => seed: u64 },
    "decaying_epsilon_greedy" => DecayingEpsilonGreedy { "c" => c: f64, "seed" => seed: u64 },
    "softmax" => Softmax { "tau" => tau: f64, "seed" => seed: u64 },
    "exp3" => Exp3 { "gamma" => gamma: f64, "seed" => seed: u64 },
    "thompson_bernoulli" => ThompsonBernoulli { "seed" => seed: u64 },
    "random_single" => RandomSingle { "seed" => seed: u64 },
    "cucb" => Cucb {},
    "llr" => Llr {},
    "comb_epsilon_greedy" => CombEpsilonGreedy { "c" => c: f64, "seed" => seed: u64 },
    "naive_comarm_moss" => NaiveComArmMoss {},
    "random_combinatorial" => RandomCombinatorial { "seed" => seed: u64 },
    "cts" => Cts {
        "seed" => seed: u64,
        "estimator" => estimator: Option<EstimatorSpec> [omit]
    },
});

tokens!(SideBonus as "SideBonus" {
    "observation" => Observation,
    "reward" => Reward,
});

tagged!(FeedbackSpec as "FeedbackSpec" {
    "immediate" => Immediate {},
    "batched" => Batched { "max_pending" => max_pending: usize },
} then FeedbackSpec::validate);

// The drift key is omitted entirely (not emitted as null) when absent, so
// documents written before the key existed re-encode byte-identically.
object!(WorkloadSpec as "WorkloadSpec" {
    "graph" => graph: GraphSpec,
    "arms" => arms: ArmsSpec,
    "family" => family: Option<FamilySpec>,
    "drift" => drift: Option<DriftSpec> [omit],
    "seed" => seed: u64,
});

/// The version gate: a document from another schema or format fails with
/// `UnsupportedVersion` before any stricter member check confuses the
/// matter.
pub(crate) fn version_gate<const SUPPORTED: u64>(found: &u64) -> Result<(), SpecError> {
    if *found != SUPPORTED {
        return Err(SpecError::UnsupportedVersion {
            found: *found,
            supported: SUPPORTED,
        });
    }
    Ok(())
}

object!(ScenarioSpec as "ScenarioSpec" {
    "version" => version: u64 [gate version_gate::<SPEC_VERSION>],
    "name" => name: String,
    "workload" => workload: WorkloadSpec,
    "policy" => policy: PolicySpec,
    "side_bonus" => side_bonus: SideBonus,
    "horizon" => horizon: usize,
    "replications" => replications: usize,
    "seed" => seed: u64,
    "feedback" => feedback: FeedbackSpec,
} then ScenarioSpec::validate);

object!(FleetTenant as "FleetTenant" {
    "id" => id: String,
    "scenario" => scenario: ScenarioSpec,
});

object!(FleetSpec as "FleetSpec" {
    "version" => version: u64 [gate version_gate::<SPEC_VERSION>],
    "name" => name: String,
    "tenants" => tenants: Vec<FleetTenant>,
} then FleetSpec::validate);

text_entry_points! {
    ScenarioSpec: "scenario";
    FleetSpec: "fleet";
}

impl ScenarioSpec {
    /// Serialises the scenario to indented JSON.
    pub fn to_json_pretty(&self) -> String {
        pretty(&self.to_json_text())
    }
}

impl FleetSpec {
    /// Serialises the fleet to indented JSON.
    pub fn to_json_pretty(&self) -> String {
        pretty(&self.to_json_text())
    }
}

/// Re-indents a compact document the encoder just wrote.
fn pretty(compact: &str) -> String {
    json::parse(compact)
        .expect("the encoder writes well-formed JSON")
        .to_text_pretty()
}

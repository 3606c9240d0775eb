//! Property tests for the storage layer: bitmaps, columns, tables and the
//! catalog are checked against plain `Vec` models, and every WAL record
//! kind against its own encoding. Each property runs over many seeded
//! random cases (`rand`, deterministic per seed).

use gsql_storage::mutation::STATEMENT_TAG;
use gsql_storage::{
    AccelDef, Bitmap, Catalog, Column, ColumnDef, DataType, Date, IndexDef, IndexSpace, Mutation,
    PathIndexKind, Schema, StorageError, Table, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 128;

/// Run `property` once per seed.
fn for_each_case(property: impl Fn(&mut SmallRng)) {
    for seed in 0..CASES {
        property(&mut SmallRng::seed_from_u64(seed));
    }
}

const TYPES: [DataType; 5] =
    [DataType::Int, DataType::Double, DataType::Varchar, DataType::Bool, DataType::Date];

fn column_type(rng: &mut SmallRng) -> DataType {
    TYPES[rng.gen_range(0..TYPES.len())]
}

/// A random value of type `ty`; NULL one time in four.
fn value_for(rng: &mut SmallRng, ty: DataType) -> Value {
    if rng.gen_range(0..4) == 0 {
        Value::Null
    } else {
        cell(rng, ty)
    }
}

/// A random non-NULL value of type `ty`.
fn cell(rng: &mut SmallRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(i32::MIN..=i32::MAX) as i64),
        DataType::Double => {
            Value::Double(rng.gen_range(-1000..1000) as f64 / rng.gen_range(1..50) as f64)
        }
        DataType::Varchar => {
            let len = rng.gen_range(0..=8);
            Value::from(
                (0..len).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect::<String>(),
            )
        }
        DataType::Bool => Value::Bool(rng.gen()),
        DataType::Date => Value::Date(Date(rng.gen_range(-20000..20000))),
        DataType::Path => Value::Null,
    }
}

fn rows_of(table: &Table) -> Vec<Vec<Value>> {
    table.rows().collect()
}

#[test]
fn bitmap_matches_vec_model() {
    for_each_case(|rng| {
        let mut bm = Bitmap::new();
        let mut model: Vec<bool> = Vec::new();
        for _ in 0..rng.gen_range(0..200) {
            let (pos, bit) = (rng.gen_range(0..64usize), rng.gen::<bool>());
            if model.is_empty() || pos % 3 == 0 {
                bm.push(bit);
                model.push(bit);
            } else {
                let i = pos % model.len();
                bm.set(i, bit);
                model[i] = bit;
            }
        }
        assert_eq!(bm.len(), model.len());
        assert_eq!(bm.count_ones(), model.iter().filter(|&&b| b).count());
        for (i, &b) in model.iter().enumerate() {
            assert_eq!(bm.get(i), b);
        }
        assert_eq!(bm.iter().collect::<Vec<_>>(), model);
    });
}

/// Column push/get round-trips for every type; `take` gathers exactly like
/// indexing the model, and `scatter` overwrites exactly like assigning.
#[test]
fn column_matches_vec_model() {
    for_each_case(|rng| {
        let ty = column_type(rng);
        let mut values: Vec<Value> =
            (0..rng.gen_range(0..100)).map(|_| value_for(rng, ty)).collect();
        let mut col = Column::empty(ty);
        for v in &values {
            col.push(v.clone()).unwrap();
        }
        assert_eq!(col.len(), values.len());
        assert_eq!(col.null_count(), values.iter().filter(|v| v.is_null()).count());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&col.get(i), v);
        }
        if values.is_empty() {
            return;
        }
        // Gather under a random selection with repeats.
        let indices: Vec<usize> =
            (0..rng.gen_range(0..100)).map(|_| rng.gen_range(0..values.len())).collect();
        let taken = col.take(&indices);
        for (out_i, &src_i) in indices.iter().enumerate() {
            assert_eq!(&taken.get(out_i), &values[src_i]);
        }
        // Scatter onto a random ascending subset of positions.
        let positions: Vec<usize> = (0..values.len()).filter(|_| rng.gen_bool(0.3)).collect();
        let patch: Vec<Value> = positions.iter().map(|_| value_for(rng, ty)).collect();
        let mut src = Column::empty(ty);
        for v in &patch {
            src.push(v.clone()).unwrap();
        }
        col.scatter(&positions, &src).unwrap();
        for (&p, v) in positions.iter().zip(patch) {
            values[p] = v;
        }
        assert_eq!(col.iter().collect::<Vec<_>>(), values);
    });
}

/// `extend_from` concatenates: the result equals `model_a ++ model_b`.
#[test]
fn column_extend_matches_concat() {
    for_each_case(|rng| {
        let ty = column_type(rng);
        let a_vals: Vec<Value> = (0..rng.gen_range(0..40)).map(|_| value_for(rng, ty)).collect();
        let b_vals: Vec<Value> = (0..rng.gen_range(0..40)).map(|_| value_for(rng, ty)).collect();
        let mut a = Column::empty(ty);
        for v in &a_vals {
            a.push(v.clone()).unwrap();
        }
        let mut b = Column::empty(ty);
        for v in &b_vals {
            b.push(v.clone()).unwrap();
        }
        a.extend_from(&b).unwrap();
        let expect: Vec<Value> = a_vals.iter().chain(&b_vals).cloned().collect();
        assert_eq!(a.iter().collect::<Vec<_>>(), expect);
    });
}

/// Date ymd <-> days round trip over the whole supported range.
#[test]
fn date_round_trips() {
    for_each_case(|rng| {
        for _ in 0..64 {
            let days = rng.gen_range(-100_000..100_000);
            let d = Date(days);
            let (y, m, dd) = d.ymd();
            assert_eq!(Date::from_ymd(y, m, dd).unwrap().days(), days);
            // Display -> parse round trip for CE years.
            if (1..=9999).contains(&y) {
                assert_eq!(Date::parse(&d.to_string()).unwrap(), d);
            }
        }
    });
}

/// Value total ordering is a total order (antisymmetric and transitive on
/// sampled triples).
#[test]
fn value_ordering_is_consistent() {
    for_each_case(|rng| {
        let ty = column_type(rng);
        let vals: Vec<Value> = (0..rng.gen_range(3..12)).map(|_| value_for(rng, ty)).collect();
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                assert_eq!(ab, b.total_cmp(a).reverse(), "antisymmetry {a} vs {b}");
                for c in &vals {
                    if ab.is_le() && b.total_cmp(c).is_le() {
                        assert!(a.total_cmp(c).is_le(), "transitivity {a} {b} {c}");
                    }
                }
            }
        }
    });
}

/// CSV round trip for arbitrary tables (no PATH columns).
#[test]
fn csv_round_trips_tables() {
    for_each_case(|rng| {
        let schema = Schema::new(
            [DataType::Int, DataType::Varchar, DataType::Date, DataType::Bool]
                .iter()
                .enumerate()
                .map(|(i, &ty)| ColumnDef::new(format!("c{i}"), ty))
                .collect(),
        );
        let mut table = Table::empty(schema.clone());
        for _ in 0..rng.gen_range(0..30) {
            let row = schema.columns().iter().map(|def| value_for(rng, def.ty)).collect();
            table.append_row(row).unwrap();
        }
        let csv = gsql_storage::csv::to_csv_string(&table).unwrap();
        let back = gsql_storage::csv::from_csv_string(schema, &csv).unwrap();
        assert_eq!(rows_of(&back), rows_of(&table));
    });
}

/// A random schema of one to four columns, some NOT NULL.
fn random_schema(rng: &mut SmallRng) -> Schema {
    Schema::new(
        (0..rng.gen_range(1..=4))
            .map(|i| {
                let def = ColumnDef::new(format!("c{i}"), column_type(rng));
                ColumnDef { nullable: rng.gen_bool(0.7), ..def }
            })
            .collect(),
    )
}

/// A random row for `schema`. A NOT NULL cell is NULL one time in forty.
fn random_row(rng: &mut SmallRng, schema: &Schema) -> Vec<Value> {
    schema
        .columns()
        .iter()
        .map(|def| {
            if def.nullable || rng.gen_range(0..10) == 0 {
                value_for(rng, def.ty)
            } else {
                cell(rng, def.ty)
            }
        })
        .collect()
}

/// A random ascending subset of `0..n`.
fn random_positions(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let p = rng.gen_range(0..=10) as f64 / 10.0;
    (0..n).filter(|_| rng.gen_bool(p)).collect()
}

/// A random mutation of a table with `model` rows at `version`. Some are
/// invalid on purpose: NULLs in NOT NULL columns, stale base versions.
fn random_mutation(
    rng: &mut SmallRng,
    schema: &Schema,
    model: &[Vec<Value>],
    version: u64,
) -> Mutation {
    let base_version = if rng.gen_range(0..8) == 0 { version.wrapping_sub(1) } else { version };
    match rng.gen_range(0..3) {
        0 => Mutation::Append((0..rng.gen_range(0..6)).map(|_| random_row(rng, schema)).collect()),
        1 => Mutation::Delete { base_version, positions: random_positions(rng, model.len()) },
        _ => {
            let positions = random_positions(rng, model.len());
            let new_rows = positions.iter().map(|_| random_row(rng, schema)).collect();
            Mutation::Update { base_version, positions, new_rows }
        }
    }
}

/// The model's answer to `mutation`: the new rows, or `None` when the
/// catalog must refuse it and change nothing.
fn model_apply(
    model: &[Vec<Value>],
    version: u64,
    schema: &Schema,
    mutation: &Mutation,
) -> Option<Vec<Vec<Value>>> {
    let valid = |rows: &[Vec<Value>]| rows.iter().all(|r| schema.check_row(r).is_ok());
    match mutation {
        Mutation::Append(rows) => valid(rows).then(|| [model, rows.as_slice()].concat()),
        Mutation::Delete { base_version, positions } => (*base_version == version).then(|| {
            let keep = (0..model.len()).filter(|i| positions.binary_search(i).is_err());
            keep.map(|i| model[i].clone()).collect()
        }),
        Mutation::Update { base_version, positions, new_rows } => {
            (*base_version == version && valid(new_rows)).then(|| {
                let mut next = model.to_vec();
                for (&p, row) in positions.iter().zip(new_rows) {
                    next[p] = row.clone();
                }
                next
            })
        }
        Mutation::Create(_)
        | Mutation::Drop
        | Mutation::CreateIndex(_)
        | Mutation::DropIndex(_) => unreachable!("data mutations only"),
    }
}

/// A random sequence of mutations applied by `Catalog::apply` leaves the
/// table equal to a `Vec<Vec<Value>>` model, with one version bump per
/// applied mutation; a refused one changes nothing.
#[test]
fn catalog_apply_matches_row_model() {
    for_each_case(|rng| {
        let catalog = Catalog::new();
        let schema = random_schema(rng);
        let mut model: Vec<Vec<Value>> =
            (0..rng.gen_range(0..8)).map(|_| random_row(rng, &schema)).collect();
        model.retain(|row| schema.check_row(row).is_ok());
        let mut initial = Table::empty(schema.clone());
        initial.append_rows(model.clone()).unwrap();
        catalog.apply("T", Mutation::Create(initial)).unwrap();
        let mut version = 0;
        for _ in 0..24 {
            let mutation = random_mutation(rng, &schema, &model, version);
            let want = model_apply(&model, version, &schema, &mutation);
            let got = catalog.apply("t", mutation.clone());
            match want {
                Some(rows) => {
                    got.unwrap_or_else(|e| panic!("{mutation:?} refused: {e}"));
                    model = rows;
                    version += 1;
                }
                None => assert!(got.is_err(), "{mutation:?} applied"),
            }
            let entry = catalog.entry("t").unwrap();
            assert_eq!(entry.version, version);
            assert_eq!(rows_of(&entry.table), model);
        }
        catalog.apply("t", Mutation::Drop).unwrap();
        assert!(matches!(catalog.get("t"), Err(StorageError::TableNotFound(_))));
    });
}

/// One random mutation of every kind, on a random table.
fn one_of_each(rng: &mut SmallRng) -> Vec<Mutation> {
    let schema = random_schema(rng);
    let valid = |rng: &mut SmallRng, n: usize| -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        while rows.len() < n {
            let row = random_row(rng, &schema);
            if schema.check_row(&row).is_ok() {
                rows.push(row);
            }
        }
        rows
    };
    let mut table = Table::empty(schema.clone());
    let n = rng.gen_range(0..6);
    table.append_rows(valid(rng, n)).unwrap();
    let positions = random_positions(rng, 12);
    let new_rows = valid(rng, positions.len());
    let base_version = rng.gen();
    let appended = rng.gen_range(0..6);
    let column = |rng: &mut SmallRng| schema.column(rng.gen_range(0..schema.len())).name.clone();
    let accel = rng.gen_bool(0.5).then(|| AccelDef {
        weight_col: rng.gen_bool(0.5).then(|| column(rng)),
        weight_key: rng.gen_bool(0.5).then(|| rng.gen_range(0..schema.len())),
        kind: match rng.gen_bool(0.5) {
            true => PathIndexKind::Landmarks(rng.gen_range(1..=64)),
            false => PathIndexKind::Contraction,
        },
    });
    let (src_col, dst_col) = (column(rng), column(rng));
    let def = IndexDef { name: String::new(), table: "edges".into(), src_col, dst_col, accel };
    let space = if rng.gen_bool(0.5) { IndexSpace::Graph } else { IndexSpace::Path };
    vec![
        Mutation::Create(table),
        Mutation::Drop,
        Mutation::Append(valid(rng, appended)),
        Mutation::Delete { base_version, positions: positions.clone() },
        Mutation::Update { base_version, positions, new_rows },
        Mutation::CreateIndex(def),
        Mutation::DropIndex(space),
    ]
}

/// Every record kind decodes to the mutation it encodes: the same table or
/// index name, the same rows or definition, and the same bytes when encoded
/// again.
#[test]
fn every_record_kind_round_trips() {
    for_each_case(|rng| {
        for mutation in one_of_each(rng) {
            let bytes = mutation.encode("Some_Table").unwrap();
            let (name, back) = Mutation::decode(&bytes).unwrap();
            assert_eq!(name, "Some_Table");
            assert_eq!(back.encode(&name).unwrap(), bytes, "{mutation:?}");
            match (&mutation, &back) {
                (Mutation::Create(a), Mutation::Create(b)) => {
                    assert_eq!(a.schema(), b.schema());
                    assert_eq!(rows_of(a), rows_of(b));
                }
                (Mutation::Append(a), Mutation::Append(b)) => assert_eq!(a, b),
                (
                    Mutation::Update { base_version: va, positions: pa, new_rows: ra },
                    Mutation::Update { base_version: vb, positions: pb, new_rows: rb },
                ) => assert_eq!((va, pa, ra), (vb, pb, rb)),
                // A definition's name is the record's.
                (Mutation::CreateIndex(a), Mutation::CreateIndex(b)) => {
                    assert_eq!(IndexDef { name: name.clone(), ..a.clone() }, *b)
                }
                (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            }
        }
    });
}

/// A record cut short at any byte, and a record with an unknown tag, is
/// `Corrupt` — never a panic, never a different mutation.
#[test]
fn truncated_records_and_unknown_tags_are_corrupt() {
    for_each_case(|rng| {
        for mutation in one_of_each(rng) {
            let bytes = mutation.encode("t").unwrap();
            for cut in 0..bytes.len() {
                let err = Mutation::decode(&bytes[..cut]).unwrap_err();
                assert!(matches!(err, StorageError::Corrupt(_)), "cut at {cut}: {err}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(matches!(Mutation::decode(&longer), Err(StorageError::Corrupt(_))));
            for tag in [0, STATEMENT_TAG, 9, rng.gen_range(9..=255)] {
                let mut other = bytes.clone();
                other[0] = tag;
                let err = Mutation::decode(&other).unwrap_err();
                assert!(matches!(err, StorageError::Corrupt(_)), "tag {tag}: {err}");
            }
        }
    });
}

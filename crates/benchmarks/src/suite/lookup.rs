//! Tasks 1–12: expressible in the pure lookup language `Lt` (§4).
//!
//! These are the paper's "12 problems [that] can be modeled in the lookup
//! language Lt": single lookups, joins across tables, chains, and
//! composite-key selections — no syntactic manipulation anywhere. `Lt` is
//! `Lu`'s exact-gate fragment (`sst_core::generate_str_t` folded with
//! `sst_core::intersect_du`); `tests/paper_claims.rs` asserts it solves
//! exactly these 12 tasks.

use crate::task::{ex, BenchmarkTask, Category};

use super::{db, table};
use sst_datatypes::{currency_table, time_table};

pub(super) fn tasks() -> Vec<BenchmarkTask> {
    vec![
        ex2_customer_price_join(),
        company_code_to_name(),
        product_name_to_code(),
        order_to_product_name(),
        employee_building(),
        student_grade(),
        bike_model_price_pair(),
        country_currency_code(),
        course_instructor_email(),
        sku_supplier(),
        time_12_to_24(),
        isbn_title(),
    ]
}

/// Paper Example 2: map customer names to sale prices by joining CustData
/// and Sale on (Addr, St).
fn ex2_customer_price_join() -> BenchmarkTask {
    let cust = table(
        "CustData",
        &["Name", "Addr", "St"],
        &[
            &["Sean Riley", "432", "15th"],
            &["Peter Shaw", "24", "18th"],
            &["Mike Henry", "432", "18th"],
            &["Gary Lamb", "104", "12th"],
        ],
    );
    let sale = table(
        "Sale",
        &["Addr", "St", "Date", "Price"],
        &[
            &["24", "18th", "5/21", "110"],
            &["104", "12th", "5/23", "225"],
            &["432", "18th", "5/20", "2015"],
            &["432", "15th", "5/24", "495"],
        ],
    );
    BenchmarkTask {
        id: 1,
        name: "ex2_customer_price_join",
        category: Category::Lookup,
        description: "Map customer names to selling prices using address and \
                      street number as the join columns between CustData and \
                      Sale (paper Example 2).",
        db: db(vec![cust, sale]),
        rows: vec![
            ex(&["Peter Shaw"], "110"),
            ex(&["Gary Lamb"], "225"),
            ex(&["Mike Henry"], "2015"),
            ex(&["Sean Riley"], "495"),
        ],
    }
}

/// Single-table lookup: company code to company name.
fn company_code_to_name() -> BenchmarkTask {
    let comp = table(
        "Comp",
        &["Id", "Name"],
        &[
            &["c1", "Microsoft"],
            &["c2", "Google"],
            &["c3", "Apple"],
            &["c4", "Facebook"],
            &["c5", "IBM"],
            &["c6", "Xerox"],
        ],
    );
    BenchmarkTask {
        id: 2,
        name: "company_code_to_name",
        category: Category::Lookup,
        description: "Expand a company code into the company name using a \
                      two-column helper table.",
        db: db(vec![comp]),
        rows: vec![
            ex(&["c2"], "Google"),
            ex(&["c1"], "Microsoft"),
            ex(&["c4"], "Facebook"),
            ex(&["c5"], "IBM"),
            ex(&["c6"], "Xerox"),
        ],
    }
}

/// Reverse lookup: product name to its SKU code.
fn product_name_to_code() -> BenchmarkTask {
    let products = table(
        "Products",
        &["SKU", "Item"],
        &[
            &["SKU-77", "Stapler"],
            &["SKU-12", "Notebook"],
            &["SKU-41", "Scissors"],
            &["SKU-98", "Tape"],
            &["SKU-33", "Marker"],
        ],
    );
    BenchmarkTask {
        id: 3,
        name: "product_name_to_code",
        category: Category::Lookup,
        description: "Find the SKU code for a product name (reverse \
                      direction of the catalog table).",
        db: db(vec![products]),
        rows: vec![
            ex(&["Notebook"], "SKU-12"),
            ex(&["Stapler"], "SKU-77"),
            ex(&["Tape"], "SKU-98"),
            ex(&["Marker"], "SKU-33"),
        ],
    }
}

/// Two-hop chain: order id -> product id -> product name.
fn order_to_product_name() -> BenchmarkTask {
    let orders = table(
        "Orders",
        &["OrderId", "ProductId"],
        &[
            &["O-1001", "P10"],
            &["O-1002", "P11"],
            &["O-1003", "P12"],
            &["O-1004", "P13"],
        ],
    );
    let products = table(
        "ProductNames",
        &["ProductId", "Name"],
        &[
            &["P10", "Laptop"],
            &["P11", "Monitor"],
            &["P12", "Keyboard"],
            &["P13", "Webcam"],
        ],
    );
    BenchmarkTask {
        id: 4,
        name: "order_to_product_name",
        category: Category::Lookup,
        description: "Resolve an order id to the ordered product's name via \
                      a two-table chain (Orders then ProductNames).",
        db: db(vec![orders, products]),
        rows: vec![
            ex(&["O-1002"], "Monitor"),
            ex(&["O-1001"], "Laptop"),
            ex(&["O-1003"], "Keyboard"),
            ex(&["O-1004"], "Webcam"),
        ],
    }
}

/// Two-hop chain with repeated intermediate values.
fn employee_building() -> BenchmarkTask {
    let emp = table(
        "Emp",
        &["Name", "Dept"],
        &[
            &["Alice Fox", "Engineering"],
            &["Bob Hale", "Marketing"],
            &["Carol Yun", "Engineering"],
            &["Dan Reed", "Finance"],
        ],
    );
    let dept = table(
        "Dept",
        &["DeptName", "Building"],
        &[
            &["Engineering", "B2"],
            &["Marketing", "B7"],
            &["Finance", "B1"],
        ],
    );
    BenchmarkTask {
        id: 5,
        name: "employee_building",
        category: Category::Lookup,
        description: "Find which building an employee works in: employee -> \
                      department -> building.",
        db: db(vec![emp, dept]),
        rows: vec![
            ex(&["Alice Fox"], "B2"),
            ex(&["Bob Hale"], "B7"),
            ex(&["Carol Yun"], "B2"),
            ex(&["Dan Reed"], "B1"),
        ],
    }
}

/// Single lookup with non-key distractor columns.
fn student_grade() -> BenchmarkTask {
    let students = table(
        "Students",
        &["Id", "Name", "Grade"],
        &[
            &["st1", "Alice", "A"],
            &["st2", "Bob", "B+"],
            &["st3", "Carol", "B+"],
            &["st4", "Dan", "C"],
        ],
    );
    BenchmarkTask {
        id: 6,
        name: "student_grade",
        category: Category::Lookup,
        description: "Look up a student's grade from the class roster by \
                      student id (grades repeat, so only id/name are keys).",
        db: db(vec![students]),
        rows: vec![
            ex(&["st3"], "B+"),
            ex(&["st1"], "A"),
            ex(&["st4"], "C"),
            ex(&["st2"], "B+"),
        ],
    }
}

/// Composite-key lookup: two input columns jointly select the row.
fn bike_model_price_pair() -> BenchmarkTask {
    let prices = table(
        "ModelPrices",
        &["Make", "CC", "Price"],
        &[
            &["Ducati", "100", "10,000"],
            &["Ducati", "125", "12,500"],
            &["Ducati", "250", "18,000"],
            &["Honda", "125", "11,500"],
            &["Honda", "250", "19,000"],
        ],
    );
    BenchmarkTask {
        id: 7,
        name: "bike_model_price_pair",
        category: Category::Lookup,
        description: "Quote a bike price from make and engine size; the two \
                      inputs together form the table's composite key.",
        db: db(vec![prices]),
        rows: vec![
            ex(&["Honda", "125"], "11,500"),
            ex(&["Ducati", "100"], "10,000"),
            ex(&["Honda", "250"], "19,000"),
            ex(&["Ducati", "250"], "18,000"),
            ex(&["Ducati", "125"], "12,500"),
        ],
    }
}

/// Lookup against the §6 background Currency table.
fn country_currency_code() -> BenchmarkTask {
    BenchmarkTask {
        id: 8,
        name: "country_currency_code",
        category: Category::Lookup,
        description: "Map a country to its ISO currency code using the \
                      built-in Currency background table.",
        db: db(vec![currency_table()]),
        rows: vec![
            ex(&["Turkey"], "TRY"),
            ex(&["Japan"], "JPY"),
            ex(&["Brazil"], "BRL"),
            ex(&["Sweden"], "SEK"),
            ex(&["India"], "INR"),
        ],
    }
}

/// Two-hop chain: course -> instructor -> email.
fn course_instructor_email() -> BenchmarkTask {
    let courses = table(
        "Courses",
        &["Course", "Instructor"],
        &[
            &["Databases", "Prof Chen"],
            &["Compilers", "Prof Patel"],
            &["Networks", "Prof Gomez"],
            &["Graphics", "Prof Chen"],
        ],
    );
    let staff = table(
        "Staff",
        &["Member", "Email"],
        &[
            &["Prof Chen", "chen@uni.edu"],
            &["Prof Patel", "patel@uni.edu"],
            &["Prof Gomez", "gomez@uni.edu"],
        ],
    );
    BenchmarkTask {
        id: 9,
        name: "course_instructor_email",
        category: Category::Lookup,
        description: "Find the contact email for a course by chaining the \
                      course roster to the staff directory.",
        db: db(vec![courses, staff]),
        rows: vec![
            ex(&["Compilers"], "patel@uni.edu"),
            ex(&["Databases"], "chen@uni.edu"),
            ex(&["Networks"], "gomez@uni.edu"),
            ex(&["Graphics"], "chen@uni.edu"),
        ],
    }
}

/// Wide catalog row with repeated non-key values.
fn sku_supplier() -> BenchmarkTask {
    let catalog = table(
        "Catalog",
        &["SKU", "Item", "Supplier", "Stock"],
        &[
            &["K-100", "Drill", "Acme Corp", "12"],
            &["K-200", "Saw", "Blue Tools", "7"],
            &["K-300", "Hammer", "Acme Corp", "12"],
            &["K-400", "Wrench", "Grip Co", "9"],
        ],
    );
    BenchmarkTask {
        id: 10,
        name: "sku_supplier",
        category: Category::Lookup,
        description: "Look up the supplier for a SKU from a catalog whose \
                      supplier and stock columns repeat.",
        db: db(vec![catalog]),
        rows: vec![
            ex(&["K-200"], "Blue Tools"),
            ex(&["K-100"], "Acme Corp"),
            ex(&["K-400"], "Grip Co"),
            ex(&["K-300"], "Acme Corp"),
        ],
    }
}

/// Composite key over the §6 Time table: (12Hour, AMPM) -> 24Hour.
fn time_12_to_24() -> BenchmarkTask {
    BenchmarkTask {
        id: 11,
        name: "time_12_to_24",
        category: Category::Lookup,
        description: "Convert a 12-hour clock reading (hour, AM/PM) to the \
                      24-hour clock using the built-in Time table.",
        db: db(vec![time_table()]),
        rows: vec![
            ex(&["3", "PM"], "15"),
            ex(&["9", "AM"], "9"),
            ex(&["12", "AM"], "0"),
            ex(&["11", "PM"], "23"),
            ex(&["12", "PM"], "12"),
        ],
    }
}

/// Numeric-looking keys.
fn isbn_title() -> BenchmarkTask {
    let books = table(
        "Books",
        &["ISBN", "Title"],
        &[
            &["978-0131103627", "The C Programming Language"],
            &["978-0262033848", "Introduction to Algorithms"],
            &["978-0201633610", "Design Patterns"],
            &["978-1449373320", "Designing Data-Intensive Applications"],
        ],
    );
    BenchmarkTask {
        id: 12,
        name: "isbn_title",
        category: Category::Lookup,
        description: "Resolve an ISBN to the book title.",
        db: db(vec![books]),
        rows: vec![
            ex(&["978-0262033848"], "Introduction to Algorithms"),
            ex(&["978-0131103627"], "The C Programming Language"),
            ex(&["978-0201633610"], "Design Patterns"),
            ex(&["978-1449373320"], "Designing Data-Intensive Applications"),
        ],
    }
}

(** TPC-H-like workload: the 8-table schema with deterministic synthetic
    data and hand-written approximations of queries Q1–Q22.

    The approximations keep each query's skeleton — which tables join, the
    selectivity structure, the aggregation/ordering shape — while mapping
    subqueries and semi-joins onto the engine's operator set (inner hash
    joins, hash aggregation, sort; documented per query). Scale factor
    [sf] maps to [sf * 2000] lineitem rows, with the other tables in the
    original proportions. *)

open Qcomp_storage
open Qcomp_plan
open Spec

(* dates are days since 1992-01-01; the TPC-H range spans ~2500 days *)
let date_lo = 0
let date_hi = 2500

let lineitem =
  Schema.make "lineitem"
    [
      ("l_orderkey", Schema.Int64);
      ("l_partkey", Schema.Int64);
      ("l_suppkey", Schema.Int64);
      ("l_linenumber", Schema.Int32);
      ("l_quantity", Schema.Decimal 2);
      ("l_extendedprice", Schema.Decimal 2);
      ("l_discount", Schema.Decimal 2);
      ("l_tax", Schema.Decimal 2);
      ("l_returnflag", Schema.Str);
      ("l_linestatus", Schema.Str);
      ("l_shipdate", Schema.Date);
      ("l_commitdate", Schema.Date);
      ("l_receiptdate", Schema.Date);
      ("l_shipmode", Schema.Str);
    ]

let orders =
  Schema.make "orders"
    [
      ("o_orderkey", Schema.Int64);
      ("o_custkey", Schema.Int64);
      ("o_orderstatus", Schema.Str);
      ("o_totalprice", Schema.Decimal 2);
      ("o_orderdate", Schema.Date);
      ("o_orderpriority", Schema.Str);
      ("o_shippriority", Schema.Int32);
    ]

let customer =
  Schema.make "customer"
    [
      ("c_custkey", Schema.Int64);
      ("c_name", Schema.Str);
      ("c_nationkey", Schema.Int32);
      ("c_acctbal", Schema.Decimal 2);
      ("c_mktsegment", Schema.Str);
    ]

let part =
  Schema.make "part"
    [
      ("p_partkey", Schema.Int64);
      ("p_name", Schema.Str);
      ("p_brand", Schema.Str);
      ("p_type", Schema.Str);
      ("p_size", Schema.Int32);
      ("p_retailprice", Schema.Decimal 2);
    ]

let supplier =
  Schema.make "supplier"
    [
      ("s_suppkey", Schema.Int64);
      ("s_name", Schema.Str);
      ("s_nationkey", Schema.Int32);
      ("s_acctbal", Schema.Decimal 2);
    ]

let partsupp =
  Schema.make "partsupp"
    [
      ("ps_partkey", Schema.Int64);
      ("ps_suppkey", Schema.Int64);
      ("ps_availqty", Schema.Int32);
      ("ps_supplycost", Schema.Decimal 2);
    ]

let nation =
  Schema.make "nation"
    [ ("n_nationkey", Schema.Int32); ("n_name", Schema.Str); ("n_regionkey", Schema.Int32) ]

let region = Schema.make "region" [ ("r_regionkey", Schema.Int32); ("r_name", Schema.Str) ]

let flags = [| "A"; "N"; "R" |]
let statuses = [| "F"; "O" |]
let modes = [| "AIR"; "SHIP"; "TRUCK"; "MAIL"; "RAIL"; "REG AIR"; "FOB" |]
let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "HOUSEHOLD"; "MACHINERY" |]
let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]
let brands = [| "Brand#11"; "Brand#22"; "Brand#33"; "Brand#44"; "Brand#55" |]
let types =
  [| "STANDARD BRASS"; "SMALL STEEL"; "MEDIUM COPPER"; "LARGE TIN"; "ECONOMY NICKEL";
     "PROMO BRASS"; "STANDARD STEEL"; "PROMO POLISHED TIN" |]
let nations =
  [| "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA"; "FRANCE";
     "GERMANY"; "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN"; "JORDAN"; "KENYA";
     "MOROCCO"; "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA"; "SAUDI ARABIA";
     "VIETNAM"; "RUSSIA"; "UNITED KINGDOM"; "UNITED STATES" |]
let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

(* row counts per scale factor (ratios from the benchmark, downscaled) *)
let li_rows sf = sf * 2000
let ord_rows sf = sf * 500
let cust_rows sf = sf * 50
let part_rows sf = sf * 70
let supp_rows sf = max 10 (sf * 4)
let ps_rows sf = sf * 280

let tables sf : table_spec list =
  [
    {
      schema = lineitem;
      rows_at = li_rows;
      seed = 101L;
      gens =
        [|
          Datagen.Fk (ord_rows sf);
          Datagen.Fk (part_rows sf);
          Datagen.Fk (supp_rows sf);
          Datagen.Uniform (1, 7);
          Datagen.DecimalRange (100, 5000);
          Datagen.DecimalRange (100, 1000000);
          Datagen.DecimalRange (0, 10);
          Datagen.DecimalRange (0, 8);
          Datagen.Words (flags, 1);
          Datagen.Words (statuses, 1);
          Datagen.DateRange (date_lo, date_hi);
          Datagen.DateRange (date_lo, date_hi);
          Datagen.DateRange (date_lo, date_hi);
          Datagen.Words (modes, 1);
        |];
    };
    {
      schema = orders;
      rows_at = ord_rows;
      seed = 102L;
      gens =
        [|
          Datagen.Serial 0;
          Datagen.Fk (cust_rows sf);
          Datagen.Words (statuses, 1);
          Datagen.DecimalRange (1000, 50000000);
          Datagen.DateRange (date_lo, date_hi);
          Datagen.Words (priorities, 1);
          Datagen.Uniform (0, 1);
        |];
    };
    {
      schema = customer;
      rows_at = cust_rows;
      seed = 103L;
      gens =
        [|
          Datagen.Serial 0;
          Datagen.Pattern "Customer#@@@@@";
          Datagen.Uniform (0, 24);
          Datagen.DecimalRange (-99999, 999999);
          Datagen.Words (segments, 1);
        |];
    };
    {
      schema = part;
      rows_at = part_rows;
      seed = 104L;
      gens =
        [|
          Datagen.Serial 0;
          Datagen.Words (Datagen.word_pool, 3);
          Datagen.Words (brands, 1);
          Datagen.Words (types, 1);
          Datagen.Uniform (1, 50);
          Datagen.DecimalRange (90000, 200000);
        |];
    };
    {
      schema = supplier;
      rows_at = supp_rows;
      seed = 105L;
      gens =
        [|
          Datagen.Serial 0;
          Datagen.Pattern "Supplier#@@@@";
          Datagen.Uniform (0, 24);
          Datagen.DecimalRange (-99999, 999999);
        |];
    };
    {
      schema = partsupp;
      rows_at = ps_rows;
      seed = 106L;
      gens =
        [|
          Datagen.Fk (part_rows sf);
          Datagen.Fk (supp_rows sf);
          Datagen.Uniform (1, 9999);
          Datagen.DecimalRange (100, 100000);
        |];
    };
    {
      schema = nation;
      rows_at = (fun _ -> 25);
      seed = 107L;
      gens = [| Datagen.Serial 0; Datagen.Words (nations, 1); Datagen.Uniform (0, 4) |];
    };
    {
      schema = region;
      rows_at = (fun _ -> 5);
      seed = 108L;
      gens = [| Datagen.Serial 0; Datagen.Words (regions, 1) |];
    };
  ]

(* ------------------------------------------------------------------ *)
(* column indices *)

let li = Schema.col_index lineitem
let od = Schema.col_index orders
let cu = Schema.col_index customer
let pa = Schema.col_index part
let su = Schema.col_index supplier
let ps = Schema.col_index partsupp
let na = Schema.col_index nation

open Expr
open Algebra

let scan t = Scan { table = t; filter = None }
let scanf t p = Scan { table = t; filter = Some p }

(* disc_price = extendedprice * (1 - discount); charge = disc_price*(1+tax) *)
let one = dec ~scale:2 100
let disc_price ep disc = ep *% (one -% disc)

(* join output position helper: probe columns come first *)
let pcol i = col i

let queries : query list =
  [
    (* Q1: pricing summary report — full-table aggregation *)
    {
      q_name = "q01";
      q_plan =
        Order_by
          {
            input =
              Group_by
                {
                  input = scanf "lineitem" (col (li "l_shipdate") <=% date (date_hi - 90));
                  keys = [ col (li "l_returnflag"); col (li "l_linestatus") ];
                  aggs =
                    [
                      Sum (col (li "l_quantity"));
                      Sum (col (li "l_extendedprice"));
                      Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount")));
                      Sum
                        (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))
                        *% (one +% col (li "l_tax")));
                      Avg (col (li "l_quantity"));
                      Avg (col (li "l_extendedprice"));
                      Avg (col (li "l_discount"));
                      Count_star;
                    ];
                };
            keys = [ (col 0, Asc); (col 1, Asc) ];
            limit = None;
          };
    };
    (* Q2: minimum-cost supplier (flattened: partsupp⋈part⋈supplier⋈nation,
       min aggregation replaces the correlated subquery) *)
    {
      q_name = "q02";
      q_plan =
        (let join1 =
           Hash_join
             {
               probe = scanf "partsupp" (bool_ true);
               build = scanf "part" (col (pa "p_size") =% int32 15);
               probe_keys = [ col (ps "ps_partkey") ];
               build_keys = [ col (pa "p_partkey") ];
             }
         in
         (* output: partsupp(0-3) ++ part(4-9) *)
         let join2 =
           Hash_join
             {
               probe = join1;
               build = scan "supplier";
               probe_keys = [ col (ps "ps_suppkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* ++ supplier(10-13) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = join2;
                   keys = [ col (4 + pa "p_brand"); col (10 + su "s_nationkey") ];
                   aggs = [ Min (col (ps "ps_supplycost")); Count_star ];
                 };
             keys = [ (col 2, Asc); (col 0, Asc) ];
             limit = Some 100;
           });
    };
    (* Q3: shipping priority *)
    {
      q_name = "q03";
      q_plan =
        (let cust_f = scanf "customer" (Like (col (cu "c_mktsegment"), "BUILDING")) in
         let ord_f = scanf "orders" (col (od "o_orderdate") <% date 1200) in
         let j1 =
           Hash_join
             {
               probe = ord_f;
               build = cust_f;
               probe_keys = [ col (od "o_custkey") ];
               build_keys = [ col (cu "c_custkey") ];
             }
         in
         (* orders(0-6) ++ customer(7-11) *)
         let j2 =
           Hash_join
             {
               probe = scanf "lineitem" (col (li "l_shipdate") >% date 1200);
               build = j1;
               probe_keys = [ col (li "l_orderkey") ];
               build_keys = [ pcol (od "o_orderkey") ];
             }
         in
         (* lineitem(0-13) ++ orders(14-20) ++ customer(21-25) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j2;
                   keys = [ col (li "l_orderkey"); col (14 + od "o_orderdate") ];
                   aggs =
                     [ Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))) ];
                 };
             keys = [ (col 2, Desc); (col 1, Asc) ];
             limit = Some 10;
           });
    };
    (* Q4: order priority checking (semi-join approximated by join+group) *)
    {
      q_name = "q04";
      q_plan =
        (let ord_f =
           scanf "orders"
             (col (od "o_orderdate") >=% date 800 &&% (col (od "o_orderdate") <% date 890))
         in
         let j =
           Hash_join
             {
               probe = scanf "lineitem" (col (li "l_commitdate") <% col (li "l_receiptdate"));
               build = ord_f;
               probe_keys = [ col (li "l_orderkey") ];
               build_keys = [ col (od "o_orderkey") ];
             }
         in
         Order_by
           {
             input =
               Group_by
                 { input = j; keys = [ col (14 + od "o_orderpriority") ]; aggs = [ Count_star ] };
             keys = [ (col 0, Asc) ];
             limit = None;
           });
    };
    (* Q5: local supplier volume — 5-way join *)
    {
      q_name = "q05";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scan "nation";
               build = scanf "region" (Like (col 1, "ASIA"));
               probe_keys = [ col (na "n_regionkey") ];
               build_keys = [ col 0 ];
             }
         in
         (* nation(0-2) ++ region(3-4) *)
         let j2 =
           Hash_join
             {
               probe = scan "supplier";
               build = j1;
               probe_keys = [ col (su "s_nationkey") ];
               build_keys = [ col (na "n_nationkey") ];
             }
         in
         (* supplier(0-3) ++ nation(4-6) ++ region(7-8) *)
         let j3 =
           Hash_join
             {
               probe =
                 scanf "lineitem"
                   (col (li "l_shipdate") >=% date 400 &&% (col (li "l_shipdate") <% date 765));
               build = j2;
               probe_keys = [ col (li "l_suppkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* lineitem(0-13) ++ supplier(14-17) ++ nation(18-20) ++ region(21-22) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j3;
                   keys = [ col (18 + na "n_name") ];
                   aggs =
                     [ Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))) ];
                 };
             keys = [ (col 1, Desc) ];
             limit = None;
           });
    };
    (* Q6: forecasting revenue change — pure scan/filter/aggregate *)
    {
      q_name = "q06";
      q_plan =
        Group_by
          {
            input =
              scanf "lineitem"
                (col (li "l_shipdate") >=% date 365
                &&% (col (li "l_shipdate") <% date 730)
                &&% Between (col (li "l_discount"), dec ~scale:2 5, dec ~scale:2 7)
                &&% (col (li "l_quantity") <% dec ~scale:2 2400));
            keys = [ int32 1 ];
            aggs = [ Sum (col (li "l_extendedprice") *% col (li "l_discount")); Count_star ];
          };
    };
    (* Q7: volume shipping between two nations *)
    {
      q_name = "q07";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scan "supplier";
               build =
                 scanf "nation"
                   (Like (col 1, "FRANCE") ||% Like (col 1, "GERMANY"));
               probe_keys = [ col (su "s_nationkey") ];
               build_keys = [ col (na "n_nationkey") ];
             }
         in
         let j2 =
           Hash_join
             {
               probe = scanf "lineitem" (col (li "l_shipdate") >=% date 1000);
               build = j1;
               probe_keys = [ col (li "l_suppkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* lineitem ++ supplier(14-17) ++ nation(18-20) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j2;
                   keys = [ col (18 + na "n_name") ];
                   aggs =
                     [
                       Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount")));
                       Count_star;
                     ];
                 };
             keys = [ (col 0, Asc) ];
             limit = None;
           });
    };
    (* Q8: national market share (simplified join tree) *)
    {
      q_name = "q08";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scanf "part" (Like (col (pa "p_type"), "%STEEL%"));
               build = scan "supplier";
               probe_keys = [ col (pa "p_partkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         let j2 =
           Hash_join
             {
               probe = scan "lineitem";
               build = j1;
               probe_keys = [ col (li "l_partkey") ];
               build_keys = [ pcol (pa "p_partkey") ];
             }
         in
         (* lineitem ++ part(14-19) ++ supplier(20-23) *)
         Group_by
           {
             input = j2;
             keys = [ col (20 + su "s_nationkey") ];
             aggs =
               [
                 Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount")));
                 Avg (col (li "l_discount"));
               ];
           });
    };
    (* Q9: product type profit measure *)
    {
      q_name = "q09";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scan "partsupp";
               build = scanf "part" (Like (col (pa "p_name"), "%a%"));
               probe_keys = [ col (ps "ps_partkey") ];
               build_keys = [ col (pa "p_partkey") ];
             }
         in
         (* partsupp(0-3) ++ part(4-9) *)
         let j2 =
           Hash_join
             {
               probe = scan "lineitem";
               build = j1;
               probe_keys = [ col (li "l_partkey"); col (li "l_suppkey") ];
               build_keys = [ col (ps "ps_partkey"); col (ps "ps_suppkey") ];
             }
         in
         (* lineitem(0-13) ++ partsupp(14-17) ++ part(18-23) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j2;
                   keys = [ col (18 + pa "p_brand") ];
                   aggs =
                     [
                       Sum
                         (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))
                         -% (col (14 + ps "ps_supplycost") *% col (li "l_quantity")));
                     ];
                 };
             keys = [ (col 0, Asc) ];
             limit = None;
           });
    };
    (* Q10: returned item reporting *)
    {
      q_name = "q10";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe =
                 scanf "orders"
                   (col (od "o_orderdate") >=% date 600 &&% (col (od "o_orderdate") <% date 690));
               build = scan "customer";
               probe_keys = [ col (od "o_custkey") ];
               build_keys = [ col (cu "c_custkey") ];
             }
         in
         (* orders(0-6) ++ customer(7-11) *)
         let j2 =
           Hash_join
             {
               probe = scanf "lineitem" (Like (col (li "l_returnflag"), "R"));
               build = j1;
               probe_keys = [ col (li "l_orderkey") ];
               build_keys = [ col (od "o_orderkey") ];
             }
         in
         (* lineitem(0-13) ++ orders(14-20) ++ customer(21-25) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j2;
                   keys = [ col (21 + cu "c_custkey"); col (21 + cu "c_name") ];
                   aggs =
                     [ Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))) ];
                 };
             keys = [ (col 2, Desc) ];
             limit = Some 20;
           });
    };
    (* Q11: important stock identification *)
    {
      q_name = "q11";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scan "supplier";
               build = scanf "nation" (Like (col 1, "GERMANY"));
               probe_keys = [ col (su "s_nationkey") ];
               build_keys = [ col (na "n_nationkey") ];
             }
         in
         let j2 =
           Hash_join
             {
               probe = scan "partsupp";
               build = j1;
               probe_keys = [ col (ps "ps_suppkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* partsupp(0-3) ++ supplier(4-7) ++ nation(8-10) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j2;
                   keys = [ col (ps "ps_partkey") ];
                   aggs =
                     [
                       Sum
                         (col (ps "ps_supplycost")
                         *% Cast (col (ps "ps_availqty"), Sqlty.Decimal 0));
                     ];
                 };
             keys = [ (col 1, Desc) ];
             limit = Some 50;
           });
    };
    (* Q12: shipping modes and order priority *)
    {
      q_name = "q12";
      q_plan =
        (let j =
           Hash_join
             {
               probe =
                 scanf "lineitem"
                   ((Like (col (li "l_shipmode"), "MAIL") ||% Like (col (li "l_shipmode"), "SHIP"))
                   &&% (col (li "l_commitdate") <% col (li "l_receiptdate"))
                   &&% (col (li "l_shipdate") <% col (li "l_commitdate"))
                   &&% (col (li "l_receiptdate") >=% date 1095));
               build = scan "orders";
               probe_keys = [ col (li "l_orderkey") ];
               build_keys = [ col (od "o_orderkey") ];
             }
         in
         (* lineitem ++ orders(14-20) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j;
                   keys = [ col (li "l_shipmode") ];
                   aggs =
                     [
                       Sum
                         (Case
                            ( [
                                ( Like (col (14 + od "o_orderpriority"), "1-URGENT")
                                  ||% Like (col (14 + od "o_orderpriority"), "2-HIGH"),
                                  int64 1L );
                              ],
                              int64 0L ));
                       Count_star;
                     ];
                 };
             keys = [ (col 0, Asc) ];
             limit = None;
           });
    };
    (* Q13: customer distribution (outer join approximated as inner) *)
    {
      q_name = "q13";
      q_plan =
        (let j =
           Hash_join
             {
               probe = scanf "orders" (Not (Like (col (od "o_orderpriority"), "%special%")));
               build = scan "customer";
               probe_keys = [ col (od "o_custkey") ];
               build_keys = [ col (cu "c_custkey") ];
             }
         in
         let per_cust =
           Group_by { input = j; keys = [ col (od "o_custkey") ]; aggs = [ Count_star ] }
         in
         Order_by
           {
             input = Group_by { input = per_cust; keys = [ col 1 ]; aggs = [ Count_star ] };
             keys = [ (col 1, Desc); (col 0, Desc) ];
             limit = None;
           });
    };
    (* Q14: promotion effect *)
    {
      q_name = "q14";
      q_plan =
        (let j =
           Hash_join
             {
               probe =
                 scanf "lineitem"
                   (col (li "l_shipdate") >=% date 900 &&% (col (li "l_shipdate") <% date 930));
               build = scan "part";
               probe_keys = [ col (li "l_partkey") ];
               build_keys = [ col (pa "p_partkey") ];
             }
         in
         (* lineitem ++ part(14-19) *)
         Group_by
           {
             input = j;
             keys = [ int32 1 ];
             aggs =
               [
                 Sum
                   (Case
                      ( [
                          ( Like (col (14 + pa "p_type"), "PROMO%"),
                            disc_price (col (li "l_extendedprice")) (col (li "l_discount")) );
                        ],
                        dec ~scale:2 0 ));
                 Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount")));
               ];
           });
    };
    (* Q15: top supplier (view flattened) *)
    {
      q_name = "q15";
      q_plan =
        (let revenue =
           Group_by
             {
               input =
                 scanf "lineitem"
                   (col (li "l_shipdate") >=% date 1500 &&% (col (li "l_shipdate") <% date 1590));
               keys = [ col (li "l_suppkey") ];
               aggs = [ Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))) ];
             }
         in
         let j =
           Hash_join
             {
               probe = revenue;
               build = scan "supplier";
               probe_keys = [ col 0 ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* revenue(0-1) ++ supplier(2-5) *)
         Order_by
           {
             input = Project { input = j; exprs = [ col 0; col (2 + su "s_name"); col 1 ] };
             keys = [ (col 2, Desc) ];
             limit = Some 10;
           });
    };
    (* Q16: parts/supplier relationship *)
    {
      q_name = "q16";
      q_plan =
        (let j =
           Hash_join
             {
               probe = scan "partsupp";
               build =
                 scanf "part"
                   (Not (Like (col (pa "p_brand"), "Brand#33"))
                   &&% (col (pa "p_size") <% int32 20));
               probe_keys = [ col (ps "ps_partkey") ];
               build_keys = [ col (pa "p_partkey") ];
             }
         in
         (* partsupp(0-3) ++ part(4-9) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j;
                   keys = [ col (4 + pa "p_brand"); col (4 + pa "p_type"); col (4 + pa "p_size") ];
                   aggs = [ Count_star ];
                 };
             keys = [ (col 3, Desc); (col 0, Asc) ];
             limit = None;
           });
    };
    (* Q17: small-quantity-order revenue (correlated subquery flattened to
       per-part average then re-joined) *)
    {
      q_name = "q17";
      q_plan =
        (let avg_qty =
           Group_by
             {
               input = scan "lineitem";
               keys = [ col (li "l_partkey") ];
               aggs = [ Avg (col (li "l_quantity")) ];
             }
         in
         let j1 =
           Hash_join
             {
               probe = scanf "part" (Like (col (pa "p_brand"), "Brand#22"));
               build = avg_qty;
               probe_keys = [ col (pa "p_partkey") ];
               build_keys = [ col 0 ];
             }
         in
         (* part(0-5) ++ avg(6-7) *)
         let j2 =
           Hash_join
             {
               probe = scan "lineitem";
               build = j1;
               probe_keys = [ col (li "l_partkey") ];
               build_keys = [ pcol (pa "p_partkey") ];
             }
         in
         (* lineitem(0-13) ++ part(14-19) ++ avg(20-21) *)
         Group_by
           {
             input =
               Filter
                 {
                   input = j2;
                   pred = col (li "l_quantity") <% col 21;
                 };
             keys = [ int32 1 ];
             aggs = [ Sum (col (li "l_extendedprice")); Count_star ];
           });
    };
    (* Q18: large volume customer *)
    {
      q_name = "q18";
      q_plan =
        (let per_order =
           Group_by
             {
               input = scan "lineitem";
               keys = [ col (li "l_orderkey") ];
               aggs = [ Sum (col (li "l_quantity")) ];
             }
         in
         let big = Filter { input = per_order; pred = col 1 >% dec ~scale:2 12000 } in
         let j =
           Hash_join
             {
               probe = scan "orders";
               build = big;
               probe_keys = [ col (od "o_orderkey") ];
               build_keys = [ col 0 ];
             }
         in
         (* orders(0-6) ++ big(7-8) *)
         Order_by
           {
             input =
               Project
                 {
                   input = j;
                   exprs = [ col (od "o_orderkey"); col (od "o_totalprice"); col 8 ];
                 };
             keys = [ (col 1, Desc) ];
             limit = Some 100;
           });
    };
    (* Q19: discounted revenue — disjunctive predicates *)
    {
      q_name = "q19";
      q_plan =
        (let j =
           Hash_join
             {
               probe = scan "lineitem";
               build = scan "part";
               probe_keys = [ col (li "l_partkey") ];
               build_keys = [ col (pa "p_partkey") ];
             }
         in
         (* lineitem ++ part(14-19) *)
         Group_by
           {
             input =
               Filter
                 {
                   input = j;
                   pred =
                     (Like (col (14 + pa "p_brand"), "Brand#11")
                     &&% Between (col (li "l_quantity"), dec ~scale:2 100, dec ~scale:2 1100)
                     &&% (col (14 + pa "p_size") <=% int32 5))
                     ||% (Like (col (14 + pa "p_brand"), "Brand#44")
                         &&% Between (col (li "l_quantity"), dec ~scale:2 1000, dec ~scale:2 2000)
                         &&% (col (14 + pa "p_size") <=% int32 10));
                 };
             keys = [ int32 1 ];
             aggs = [ Sum (disc_price (col (li "l_extendedprice")) (col (li "l_discount"))) ];
           });
    };
    (* Q20: potential part promotion *)
    {
      q_name = "q20";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scan "partsupp";
               build = scanf "part" (Like (col (pa "p_name"), "f%"));
               probe_keys = [ col (ps "ps_partkey") ];
               build_keys = [ col (pa "p_partkey") ];
             }
         in
         let j2 =
           Hash_join
             {
               probe = j1;
               build = scan "supplier";
               probe_keys = [ col (ps "ps_suppkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* partsupp(0-3) ++ part(4-9) ++ supplier(10-13) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j2;
                   keys = [ col (10 + su "s_name") ];
                   aggs = [ Sum (Cast (col (ps "ps_availqty"), Sqlty.Int64)) ];
                 };
             keys = [ (col 0, Asc) ];
             limit = None;
           });
    };
    (* Q21: suppliers who kept orders waiting *)
    {
      q_name = "q21";
      q_plan =
        (let j1 =
           Hash_join
             {
               probe = scanf "lineitem" (col (li "l_receiptdate") >% col (li "l_commitdate"));
               build = scan "supplier";
               probe_keys = [ col (li "l_suppkey") ];
               build_keys = [ col (su "s_suppkey") ];
             }
         in
         (* lineitem ++ supplier(14-17) *)
         let j2 =
           Hash_join
             {
               probe = j1;
               build = scanf "orders" (Like (col (od "o_orderstatus"), "F"));
               probe_keys = [ col (li "l_orderkey") ];
               build_keys = [ col (od "o_orderkey") ];
             }
         in
         (* ++ orders(18-24) *)
         Order_by
           {
             input =
               Group_by
                 { input = j2; keys = [ col (14 + su "s_name") ]; aggs = [ Count_star ] };
             keys = [ (col 1, Desc); (col 0, Asc) ];
             limit = Some 100;
           });
    };
    (* Q22: global sales opportunity *)
    {
      q_name = "q22";
      q_plan =
        (let cust_f =
           scanf "customer"
             (col (cu "c_acctbal") >% dec ~scale:2 0
             &&% (col (cu "c_nationkey") <% int32 7));
         in
         let j =
           Hash_join
             {
               probe = scan "orders";
               build = cust_f;
               probe_keys = [ col (od "o_custkey") ];
               build_keys = [ col (cu "c_custkey") ];
             }
         in
         (* orders(0-6) ++ customer(7-11) *)
         Order_by
           {
             input =
               Group_by
                 {
                   input = j;
                   keys = [ col (7 + cu "c_nationkey") ];
                   aggs = [ Count_star; Sum (col (7 + cu "c_acctbal")) ];
                 };
             keys = [ (col 0, Asc) ];
             limit = None;
           });
    };
  ]

(* The work estimate's blind spot, kept as a named query for the serving
   experiments and tests: every scan is tiny (70 + 280 + 10 rows at sf=1,
   so [Engine.adaptive_backend]'s prior prices it as 360 rows of work and
   picks a weak rung), but the bucketed join keys give each probe row ~1/8
   of the part table as build matches, and each of those ~half the
   suppliers — the join output is orders of magnitude larger than any
   input. Without reopt it stays on the prior's pick; observed
   cycles-per-row send it further up the tier ladder within a few
   morsels. Not part of [queries]: the
   paper-replication experiments stay untouched. *)
let deceptive : query =
  let bucket e k = e -% (e /% int64 k *% int64 k) in
  {
    q_name = "qfan";
    q_plan =
      (let j1 =
         Hash_join
           {
             probe = scan "partsupp";
             build = scan "part";
             probe_keys = [ bucket (col (ps "ps_partkey")) 8L ];
             build_keys = [ bucket (col (pa "p_partkey")) 8L ];
           }
       in
       (* partsupp(0-3) ++ part(4-9) *)
       let j2 =
         Hash_join
           {
             probe = j1;
             build = scan "supplier";
             probe_keys = [ bucket (col (ps "ps_suppkey")) 2L ];
             build_keys = [ bucket (col (su "s_suppkey")) 2L ];
           }
       in
       (* ++ supplier(10-13) *)
       Project
         {
           input =
             Filter
               {
                 input = j2;
                 pred =
                   bucket (Cast (col (ps "ps_availqty"), Sqlty.Int64)) 29L
                   =% int64 0L;
               };
           exprs =
             [
               col (ps "ps_partkey");
               col (10 + su "s_suppkey");
               col (ps "ps_supplycost") *% col (4 + pa "p_retailprice");
             ];
         });
  }

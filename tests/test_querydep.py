"""Unit tests for the change-impact extension."""

import pytest

from repro.diff import diff_ddl
from repro.querydep import (
    EmbeddedQuery,
    Impact,
    analyze_impact,
    analyze_query,
    dependency_graph,
    extract_from_files,
    extract_queries,
    queries_touching,
)


class TestExtractQueries:
    def test_double_quoted_select(self):
        source = 'db.query("SELECT id FROM users");\n'
        queries = extract_queries(source, file="app.js")
        assert len(queries) == 1
        assert queries[0].kind == "SELECT"
        assert queries[0].file == "app.js"

    def test_single_quoted_and_line_numbers(self):
        source = "x = 1\ny = 2\nq = 'DELETE FROM posts WHERE id = ?'\n"
        queries = extract_queries(source)
        assert queries[0].line == 3
        assert queries[0].kind == "DELETE"

    def test_triple_quoted_multiline(self):
        source = 'q = """SELECT a,\n b FROM t"""\n'
        queries = extract_queries(source)
        assert len(queries) == 1
        assert "FROM t" in queries[0].text

    def test_non_sql_strings_ignored(self):
        source = 'msg = "hello SELECT-ish but not really"\npath = "a/b"\n'
        assert extract_queries(source) == []

    def test_insert_update(self):
        source = (
            "a = 'INSERT INTO t (x) VALUES (1)'\n"
            "b = 'UPDATE t SET x = 2'\n"
        )
        kinds = [q.kind for q in extract_queries(source)]
        assert kinds == ["INSERT", "UPDATE"]

    def test_extract_from_files_sorted(self):
        files = {
            "b.py": "q = 'SELECT 1 FROM t'",
            "a.py": "q = 'SELECT 2 FROM s'",
        }
        queries = extract_from_files(files)
        assert [q.file for q in queries] == ["a.py", "b.py"]


class TestAnalyzeQuery:
    def test_simple_select(self):
        deps = analyze_query("SELECT id, name FROM users WHERE age > 10")
        assert deps.tables == {"users"}
        assert ("users", "id") in deps.columns
        assert ("users", "name") in deps.columns
        assert ("users", "age") in deps.columns

    def test_qualified_columns_with_alias(self):
        deps = analyze_query(
            "SELECT u.name, p.body FROM users u "
            "JOIN posts p ON u.id = p.user_id"
        )
        assert deps.tables == {"users", "posts"}
        assert ("users", "name") in deps.columns
        assert ("posts", "body") in deps.columns
        assert ("posts", "user_id") in deps.columns

    def test_as_alias(self):
        deps = analyze_query("SELECT a.x FROM items AS a")
        assert ("items", "x") in deps.columns

    def test_select_star(self):
        deps = analyze_query("SELECT * FROM users")
        assert deps.star_tables == {"users"}

    def test_qualified_star(self):
        deps = analyze_query(
            "SELECT u.* FROM users u JOIN posts p ON u.id = p.uid"
        )
        assert deps.star_tables == {"users"}
        assert "posts" not in deps.star_tables

    def test_multiplication_is_not_star(self):
        deps = analyze_query("SELECT price FROM t WHERE a * 2 > 4")
        assert not deps.star_tables

    def test_insert_columns(self):
        deps = analyze_query("INSERT INTO logs (level, msg) VALUES (1, 'x')")
        assert deps.tables == {"logs"}
        assert ("logs", "level") in deps.columns

    def test_update_set(self):
        deps = analyze_query("UPDATE users SET name = 'x' WHERE id = 3")
        assert deps.tables == {"users"}
        assert ("users", "name") in deps.columns

    def test_unqualified_in_join_is_ambiguous(self):
        deps = analyze_query(
            "SELECT name FROM users u JOIN posts p ON u.id = p.uid"
        )
        assert (None, "name") in deps.columns
        assert deps.references_column("users", "name")
        assert deps.references_column("posts", "name")

    def test_function_calls_not_columns(self):
        deps = analyze_query("SELECT COUNT(id) FROM t")
        assert ("t", "id") in deps.columns
        assert not any(col == "count" for _, col in deps.columns)

    def test_references_table_case_insensitive(self):
        deps = analyze_query("SELECT x FROM Users")
        assert deps.references_table("USERS")


OLD = """
CREATE TABLE users (id INT, name VARCHAR(40), email TEXT);
CREATE TABLE posts (pid INT, body TEXT, author INT);
CREATE TABLE sessions (sid INT, token TEXT);
"""


def query(text, file="app.py", line=1):
    return EmbeddedQuery(file=file, line=line, text=text)


class TestImpact:
    def test_dropped_table_breaks(self):
        new = OLD + "DROP TABLE sessions;"
        report = analyze_impact(
            [query("SELECT token FROM sessions")], diff_ddl(OLD, new)
        )
        assert report.impacts[0].impact is Impact.BREAKS

    def test_dropped_column_breaks(self):
        new = OLD + "ALTER TABLE users DROP COLUMN email;"
        report = analyze_impact(
            [query("SELECT email FROM users")], diff_ddl(OLD, new)
        )
        assert report.impacts[0].impact is Impact.BREAKS

    def test_type_change_is_at_risk(self):
        new = OLD + "ALTER TABLE users MODIFY COLUMN name VARCHAR(10);"
        report = analyze_impact(
            [query("SELECT name FROM users")], diff_ddl(OLD, new)
        )
        assert report.impacts[0].impact is Impact.AT_RISK

    def test_select_star_drifts_on_injection(self):
        new = OLD + "ALTER TABLE users ADD COLUMN age INT;"
        report = analyze_impact(
            [query("SELECT * FROM users")], diff_ddl(OLD, new)
        )
        assert report.impacts[0].impact is Impact.DRIFTS

    def test_unrelated_query_unaffected(self):
        new = OLD + "ALTER TABLE users ADD COLUMN age INT;"
        report = analyze_impact(
            [query("SELECT body FROM posts")], diff_ddl(OLD, new)
        )
        assert report.impacts[0].impact is Impact.UNAFFECTED

    def test_report_sorted_worst_first(self):
        new = OLD + (
            "DROP TABLE sessions;"
            "ALTER TABLE users ADD COLUMN age INT;"
        )
        report = analyze_impact(
            [
                query("SELECT body FROM posts", line=1),
                query("SELECT * FROM users", line=2),
                query("SELECT token FROM sessions", line=3),
            ],
            diff_ddl(OLD, new),
        )
        impacts = [qi.impact for qi in report]
        assert impacts == [Impact.BREAKS, Impact.DRIFTS, Impact.UNAFFECTED]
        assert report.affected_count == 2

    def test_reasons_are_informative(self):
        new = OLD + "ALTER TABLE users DROP COLUMN email;"
        report = analyze_impact(
            [query("SELECT email FROM users")], diff_ddl(OLD, new)
        )
        assert "users.email" in report.impacts[0].reasons[0]


class TestDependencyGraph:
    def test_nodes_and_edges(self):
        pytest.importorskip("networkx")
        graph = dependency_graph(
            [query("SELECT u.name FROM users u", line=4)]
        )
        assert graph.nodes["table:users"]["kind"] == "table"
        assert graph.has_edge("query:app.py:4", "column:users.name")
        assert graph.has_edge("column:users.name", "table:users")

    def test_queries_touching_table(self):
        pytest.importorskip("networkx")
        graph = dependency_graph(
            [
                query("SELECT u.name FROM users u", line=1),
                query("SELECT body FROM posts", line=2),
            ]
        )
        hits = queries_touching(graph, "table:users")
        assert hits == ["query:app.py:1"]

    def test_queries_touching_missing_node(self):
        pytest.importorskip("networkx")
        graph = dependency_graph([])
        assert queries_touching(graph, "table:ghost") == []


class TestPositionalInsert:
    def test_detected(self):
        deps = analyze_query("INSERT INTO logs VALUES (1, 'x')")
        assert deps.positional_insert_tables == {"logs"}

    def test_column_list_not_positional(self):
        deps = analyze_query("INSERT INTO logs (a, b) VALUES (1, 2)")
        assert deps.positional_insert_tables == set()

    def test_qualified_target(self):
        deps = analyze_query("INSERT INTO public.logs VALUES (1)")
        assert "logs" in deps.positional_insert_tables

    def test_insert_select_positional(self):
        deps = analyze_query("INSERT INTO archive SELECT * FROM logs")
        assert "archive" in deps.positional_insert_tables

    def test_injection_breaks_positional_insert(self):
        new = OLD + "ALTER TABLE sessions ADD COLUMN ip TEXT;"
        report = analyze_impact(
            [query("INSERT INTO sessions VALUES (1, 'tok')")],
            diff_ddl(OLD, new),
        )
        assert report.impacts[0].impact is Impact.BREAKS
        assert "arity" in report.impacts[0].reasons[0]

    def test_ejection_breaks_positional_insert(self):
        new = OLD + "ALTER TABLE sessions DROP COLUMN token;"
        report = analyze_impact(
            [query("INSERT INTO sessions VALUES (1, 'tok')")],
            diff_ddl(OLD, new),
        )
        assert report.impacts[0].impact is Impact.BREAKS

    def test_column_list_insert_survives_injection(self):
        new = OLD + "ALTER TABLE sessions ADD COLUMN ip TEXT;"
        report = analyze_impact(
            [query("INSERT INTO sessions (sid, token) VALUES (1, 'x')")],
            diff_ddl(OLD, new),
        )
        assert report.impacts[0].impact is Impact.UNAFFECTED

"""The paper's demonstration (§4, Figure 2) on the movie database.

Reproduces the three demo features end-to-end:

* Feature 1 (Fig 2a): a DBSQL in B3 joins MOVIES, MOVIES2ACTORS and ACTORS,
  parameterised by RANGEVALUE(B1)/RANGEVALUE(B2); the result spills B3:B10.
* Feature 2 (Fig 2b): a sheet range becomes a relational table (schema
  inferred) and is replaced by a live DBTABLE.
* Feature 3 (Fig 2c): modifications at both ends stay in sync.

Run:  python examples/movies_demo.py
"""

from repro import Workbook
from repro.workloads.datasets import generate_movie_data, load_movie_database


def show_column(wb, sheet, col, top, bottom, label):
    values = [wb.get(sheet, f"{col}{row}") for row in range(top, bottom + 1)]
    values = [value for value in values if value is not None]
    print(f"{label}: {values}")


def main() -> None:
    data = generate_movie_data(n_movies=200, n_actors=80, links_per_movie=3, seed=42)
    wb = Workbook(database=load_movie_database(data))

    # ------------------------------------------------------------- Feature 1
    print("=== Feature 1: Querying (Fig 2a) ===")
    wb.set("Sheet1", "B1", 1990)
    wb.set("Sheet1", "B2", 2000)
    wb.dbsql(
        "Sheet1", "B3",
        "SELECT DISTINCT a.name "
        "FROM movies m "
        "JOIN movies2actors ma ON m.movieid = ma.movieid "
        "JOIN actors a ON a.actorid = ma.actorid "
        "WHERE m.year >= RANGEVALUE(B1) AND m.year <= RANGEVALUE(B2) "
        "ORDER BY a.name LIMIT 8",
    )
    show_column(wb, "Sheet1", "B", 3, 10, "actors 1990-2000 (B3:B10)")

    wb.set("Sheet1", "B1", 2010)  # edit the parameter cell
    show_column(wb, "Sheet1", "B", 3, 10, "after editing B1 to 2010")

    # ------------------------------------------------------------- Feature 2
    print("\n=== Feature 2: Import/Export (Fig 2b) ===")
    wb.add_sheet("Ratings")
    wb["Ratings"].set_grid(
        "A1",
        [
            ["movieid", "stars"],
            [1, 5],
            [2, 3],
            [3, 4],
            [4, 2],
        ],
    )
    wb.create_table_from_range("Ratings", "A1:B5", "ratings", primary_key="movieid")
    print("table created; sheet now shows a DBTABLE:",
          wb.formula_text("Ratings", "A1"))
    result = wb.execute(
        "SELECT m.title, r.stars FROM movies m "
        "JOIN ratings r ON m.movieid = r.movieid ORDER BY r.stars DESC"
    )
    print("join against the exported table:")
    for title, stars in result:
        print(f"  {stars}* {title}")

    # Import into another sheet.
    wb.add_sheet("View")
    wb.dbtable("View", "A1", "ratings")
    print("imported on View!A1, first data row:",
          wb.get("View", "A2"), wb.get("View", "B2"))

    # ------------------------------------------------------------- Feature 3
    print("\n=== Feature 3: Modifications (Fig 2c) ===")
    wb.dbsql("View", "D1", "SELECT avg(stars) FROM ratings")
    print("avg stars:", wb.get("View", "D1"))

    print("front-end edit: set B2 (stars of movie 1) to 1 ...")
    wb.set("View", "B2", 1)
    print("  DB now:", wb.execute("SELECT stars FROM ratings WHERE movieid=1").scalar())
    print("  dependent DBSQL immediately shows:", wb.get("View", "D1"))

    print("back-end edit: UPDATE ratings SET stars = 5 WHERE movieid = 4 ...")
    wb.execute("UPDATE ratings SET stars = 5 WHERE movieid = 4")
    print("  sheet cell B5 now:", wb.get("View", "B5"))
    print("  avg refreshed:", wb.get("View", "D1"))

    print("\nstats:", wb.stats_summary())


if __name__ == "__main__":
    main()
